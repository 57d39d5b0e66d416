//! Locksets and effective locksets (§3.1.1–§3.1.2).
//!
//! A lockset is the set of locks held by a thread at a given point. HawkSet
//! extends each entry with the *acquisition timestamp* — the value of a
//! thread-local logical clock, incremented on every lock acquisition — so
//! that the store→persist intersection can tell whether both operations sit
//! in the *same* critical section (Figure 2d: release + re-acquire between
//! store and persist must empty the effective lockset).
//!
//! Additionally each entry carries the [`LockMode`]: a reader/writer lock
//! held in shared mode on both sides of a store/load pair does not provide
//! mutual exclusion.

use serde::{Deserialize, Serialize};

use crate::trace::{LockId, LockMode};

/// One held lock: identity, mode, and thread-local acquisition timestamp.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord, Serialize, Deserialize)]
pub struct LockEntry {
    /// The lock object.
    pub lock: LockId,
    /// Exclusive or shared acquisition.
    pub mode: LockMode,
    /// Value of the owning thread's logical clock when the lock was
    /// acquired. Only meaningful within one thread (§3.1.2: "the timestamp
    /// … is only meaningful in the thread-local context").
    pub acq_ts: u64,
}

/// An immutable, sorted set of [`LockEntry`]s.
///
/// Locksets are small (nesting depth of real programs is shallow) and
/// heavily shared, so they are kept sorted in a `Vec` and interned by the
/// analysis (§4).
#[derive(Clone, PartialEq, Eq, Hash, Debug, Default, Serialize, Deserialize)]
pub struct Lockset {
    entries: Vec<LockEntry>,
}

impl Lockset {
    /// The empty lockset.
    pub fn empty() -> Self {
        Self::default()
    }

    /// Builds a lockset from entries (sorted + deduplicated by lock id;
    /// if the same lock appears twice the most recent entry wins).
    pub fn from_entries(mut entries: Vec<LockEntry>) -> Self {
        entries.sort();
        entries.dedup_by_key(|e| e.lock);
        Self { entries }
    }

    /// Returns `true` if no locks are held.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Number of held locks.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Iterates over the entries in lock-id order.
    pub fn iter(&self) -> impl Iterator<Item = &LockEntry> {
        self.entries.iter()
    }

    /// Returns the entry for `lock`, if held.
    pub fn get(&self, lock: LockId) -> Option<&LockEntry> {
        self.entries
            .binary_search_by_key(&lock, |e| e.lock)
            .ok()
            .map(|i| &self.entries[i])
    }

    /// Returns a new lockset with `entry` added (replacing any entry for the
    /// same lock — re-acquisition refreshes the timestamp).
    ///
    /// The result is allocated at its exact size, as is [`without`]'s: the
    /// simulator interns these values as they are, one per distinct
    /// lockset.
    ///
    /// [`without`]: Lockset::without
    pub fn with(&self, entry: LockEntry) -> Self {
        let (head, tail) = match self.entries.binary_search_by_key(&entry.lock, |e| e.lock) {
            Ok(i) => (&self.entries[..i], &self.entries[i + 1..]),
            Err(i) => self.entries.split_at(i),
        };
        let mut entries = Vec::with_capacity(head.len() + 1 + tail.len());
        entries.extend_from_slice(head);
        entries.push(entry);
        entries.extend_from_slice(tail);
        Self { entries }
    }

    /// Returns a new lockset with `lock` removed.
    pub fn without(&self, lock: LockId) -> Self {
        let Ok(i) = self.entries.binary_search_by_key(&lock, |e| e.lock) else {
            return self.clone();
        };
        let mut entries = Vec::with_capacity(self.entries.len() - 1);
        entries.extend_from_slice(&self.entries[..i]);
        entries.extend_from_slice(&self.entries[i + 1..]);
        Self { entries }
    }

    /// Same-thread intersection, *timestamp sensitive* — used to compute the
    /// effective lockset of a store and its persist point (§3.1.2).
    ///
    /// An entry survives only if the same lock was held **in the same
    /// critical section** (equal acquisition timestamp) at both points. The
    /// surviving mode is the weaker of the two (a lock downgraded between
    /// store and persist only protects as a shared lock).
    pub fn intersect_same_thread(&self, other: &Lockset) -> Lockset {
        let mut out = Vec::new();
        for e in &self.entries {
            if let Some(o) = other.get(e.lock) {
                if o.acq_ts == e.acq_ts {
                    let mode = if e.mode == LockMode::Shared || o.mode == LockMode::Shared {
                        LockMode::Shared
                    } else {
                        LockMode::Exclusive
                    };
                    out.push(LockEntry {
                        lock: e.lock,
                        mode,
                        acq_ts: e.acq_ts,
                    });
                }
            }
        }
        Lockset { entries: out }
    }

    /// Cross-thread intersection, timestamp *insensitive* — used when the
    /// two locksets belong to different threads (window closed by a
    /// cross-thread overwrite). Timestamps in the result are zeroed since
    /// they carry no cross-thread meaning.
    pub fn intersect_cross_thread(&self, other: &Lockset) -> Lockset {
        let mut out = Vec::new();
        for e in &self.entries {
            if let Some(o) = other.get(e.lock) {
                let mode = if e.mode == LockMode::Shared || o.mode == LockMode::Shared {
                    LockMode::Shared
                } else {
                    LockMode::Exclusive
                };
                out.push(LockEntry {
                    lock: e.lock,
                    mode,
                    acq_ts: 0,
                });
            }
        }
        Lockset { entries: out }
    }

    /// The inter-thread race check of Algorithm 1 line 18: does some common
    /// lock provide mutual exclusion between a store window with effective
    /// lockset `self` and a load with lockset `other`?
    ///
    /// Timestamps are ignored (§3.1.2). A common lock protects unless both
    /// sides hold it in shared mode.
    pub fn protects_against(&self, other: &Lockset) -> bool {
        for e in &self.entries {
            if let Some(o) = other.get(e.lock) {
                if e.mode == LockMode::Exclusive || o.mode == LockMode::Exclusive {
                    return true;
                }
            }
        }
        false
    }

    /// Approximate heap footprint in bytes.
    pub fn approx_bytes(&self) -> usize {
        self.entries.capacity() * core::mem::size_of::<LockEntry>()
    }
}

impl FromIterator<LockEntry> for Lockset {
    fn from_iter<T: IntoIterator<Item = LockEntry>>(iter: T) -> Self {
        Self::from_entries(iter.into_iter().collect())
    }
}

impl core::fmt::Display for Lockset {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "{{")?;
        for (i, e) in self.entries.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            let mode = match e.mode {
                LockMode::Exclusive => "",
                LockMode::Shared => "r",
            };
            write!(f, "{:?}{}@{}", e.lock, mode, e.acq_ts)?;
        }
        write!(f, "}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ex(lock: u64, ts: u64) -> LockEntry {
        LockEntry {
            lock: LockId(lock),
            mode: LockMode::Exclusive,
            acq_ts: ts,
        }
    }

    fn sh(lock: u64, ts: u64) -> LockEntry {
        LockEntry {
            lock: LockId(lock),
            mode: LockMode::Shared,
            acq_ts: ts,
        }
    }

    #[test]
    fn with_and_without() {
        let ls = Lockset::empty().with(ex(1, 10)).with(ex(2, 11));
        assert_eq!(ls.len(), 2);
        assert_eq!(ls.get(LockId(1)).unwrap().acq_ts, 10);
        let ls2 = ls.without(LockId(1));
        assert_eq!(ls2.len(), 1);
        assert!(ls2.get(LockId(1)).is_none());
        // Re-acquisition refreshes the timestamp.
        let ls3 = ls.with(ex(1, 99));
        assert_eq!(ls3.get(LockId(1)).unwrap().acq_ts, 99);
        assert_eq!(ls3.len(), 2);
    }

    /// Figure 2a/2c: store under lock A, persist with no lock held — the
    /// effective lockset is empty.
    #[test]
    fn effective_lockset_empty_when_persist_unprotected() {
        let store_ls = Lockset::from_entries(vec![ex(0xa, 1)]);
        let persist_ls = Lockset::empty();
        assert!(store_ls.intersect_same_thread(&persist_ls).is_empty());
    }

    /// Figure 2b vs 2d: same lock at store and persist. If the acquisition
    /// timestamps match the effective lockset keeps the lock; if the lock
    /// was released and re-acquired (different timestamp) it must not.
    #[test]
    fn effective_lockset_is_timestamp_sensitive() {
        let store_ls = Lockset::from_entries(vec![ex(0xa, 1)]);
        let same_cs = Lockset::from_entries(vec![ex(0xa, 1)]);
        let reacquired = Lockset::from_entries(vec![ex(0xa, 2)]);
        assert_eq!(store_ls.intersect_same_thread(&same_cs).len(), 1);
        assert!(store_ls.intersect_same_thread(&reacquired).is_empty());
    }

    #[test]
    fn cross_thread_intersection_ignores_timestamps() {
        let a = Lockset::from_entries(vec![ex(0xa, 1), ex(0xb, 2)]);
        let b = Lockset::from_entries(vec![ex(0xa, 77)]);
        let i = a.intersect_cross_thread(&b);
        assert_eq!(i.len(), 1);
        assert_eq!(i.get(LockId(0xa)).unwrap().acq_ts, 0);
    }

    #[test]
    fn protects_against_requires_common_lock() {
        let st = Lockset::from_entries(vec![ex(1, 5)]);
        let ld_same = Lockset::from_entries(vec![ex(1, 123)]);
        let ld_diff = Lockset::from_entries(vec![ex(2, 9)]);
        assert!(st.protects_against(&ld_same)); // timestamps ignored
        assert!(!st.protects_against(&ld_diff));
        assert!(!st.protects_against(&Lockset::empty()));
        assert!(!Lockset::empty().protects_against(&ld_same));
    }

    #[test]
    fn shared_shared_does_not_protect() {
        let st = Lockset::from_entries(vec![sh(1, 5)]);
        let ld_rd = Lockset::from_entries(vec![sh(1, 6)]);
        let ld_wr = Lockset::from_entries(vec![ex(1, 6)]);
        assert!(!st.protects_against(&ld_rd));
        assert!(st.protects_against(&ld_wr));
    }

    #[test]
    fn mode_weakens_through_intersection() {
        // Store under write lock, persist after downgrade to read lock in
        // the same critical section: the surviving entry is shared, so a
        // shared-mode load is NOT protected.
        let st = Lockset::from_entries(vec![ex(1, 5)]);
        let persist = Lockset::from_entries(vec![sh(1, 5)]);
        let eff = st.intersect_same_thread(&persist);
        assert_eq!(eff.len(), 1);
        assert_eq!(eff.get(LockId(1)).unwrap().mode, LockMode::Shared);
        let ld_rd = Lockset::from_entries(vec![sh(1, 9)]);
        assert!(!eff.protects_against(&ld_rd));
    }

    #[test]
    fn from_entries_sorts_and_dedups() {
        let ls = Lockset::from_entries(vec![ex(5, 1), ex(1, 2), ex(5, 3)]);
        assert_eq!(ls.len(), 2);
        let ids: Vec<u64> = ls.iter().map(|e| e.lock.0).collect();
        assert_eq!(ids, vec![1, 5]);
    }
}
