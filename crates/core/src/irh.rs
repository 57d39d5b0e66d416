//! Initialization Removal Heuristic (§3.1.3).
//!
//! Concurrent programs routinely initialize freshly allocated memory without
//! holding a lock — correct, because the region is not yet visible to other
//! threads, but poison for a naive lockset analysis. Eraser pioneered
//! initialization pruning; HawkSet adapts it to persistency:
//!
//! * an address is considered **published** once a *second* thread accesses
//!   it;
//! * stores that were **explicitly persisted** by the sole-accessor thread
//!   before publication are discarded;
//! * **unpersisted** stores are kept even if they precede publication — a
//!   thread that initializes memory and publishes the pointer *without
//!   persisting* is exactly the race the tool must not miss;
//! * accesses after publication are always kept.
//!
//! Publication is tracked at 8-byte-word granularity and is sticky: freed
//! and reallocated PM stays published, which reproduces the tool's known
//! limitation on memory-reusing applications such as memcached (§7). The
//! state is *stored* per 64-byte cache line — one record holds the eight
//! words of a line — so an access probes the table once per touched line
//! rather than once per word; the rules stay per word.

use crate::addr::{AddrRange, LineId};
use crate::hash::FxHashMap;
use crate::trace::ThreadId;

/// Publication state of the eight words of one cache line. Word `i` is
/// untouched (bit `i` clear in `touched`), published (bit `i` set in
/// `published`) or private to `owners[i]`.
#[derive(Clone, Copy, Debug)]
struct LineWords {
    touched: u8,
    published: u8,
    owners: [ThreadId; 8],
}

impl LineWords {
    const UNTOUCHED: Self = Self {
        touched: 0,
        published: 0,
        owners: [ThreadId(0); 8],
    };
}

/// The word indices (0–7) whose bits are set in `mask`.
fn bits(mask: u8) -> impl Iterator<Item = usize> {
    (0..8).filter(move |i| mask & (1 << i) != 0)
}

/// The words `range` touches (exactly [`AddrRange::words`]), grouped by
/// cache line: one `(line, mask)` per line, bit `i` of the mask standing
/// for word `i` of the line.
fn line_masks(range: &AddrRange) -> impl Iterator<Item = (LineId, u8)> {
    let first = range.start / 8;
    let last = range.end().saturating_sub(1).max(range.start) / 8;
    (first / 8..=last / 8).map(move |line| {
        let lo = if line == first / 8 { first % 8 } else { 0 };
        let hi = if line == last / 8 { last % 8 } else { 7 };
        (line, (0xff_u8 << lo) & (0xff_u8 >> (7 - hi)))
    })
}

/// Tracks which PM words have become visible to more than one thread.
#[derive(Clone, Debug, Default)]
pub struct PublicationTracker {
    /// Word states per cache line. Probe-only (never iterated), so the
    /// fast deterministic hasher is safe.
    lines: FxHashMap<LineId, LineWords>,
    /// Words touched so far, each counted at its first access.
    tracked: usize,
}

impl PublicationTracker {
    /// Creates an empty tracker (all words untouched).
    pub fn new() -> Self {
        Self::default()
    }

    /// Records an access by `tid` to `range`, updating publication state.
    ///
    /// Returns `true` if **any** word of the range was already published
    /// *before* this access — i.e. whether the access itself is to public
    /// memory. The access that publishes a word (the first one from a
    /// second thread) returns `false` for that word but flips it to
    /// published for all later queries; it is nevertheless always kept by
    /// the pipeline, because [`was_published_before`] is only consulted for
    /// discarding decisions on *prior* sole-thread activity.
    ///
    /// [`was_published_before`]: PublicationTracker::is_published
    pub fn record_access(&mut self, tid: ThreadId, range: &AddrRange) -> bool {
        self.record(tid, range).0
    }

    /// [`record_access`](Self::record_access) followed by
    /// [`all_private_to`](Self::all_private_to) for the same thread and
    /// range, in one pass: whether the range is still private to `tid`
    /// once this access is recorded (the load path's drop condition).
    pub fn record_private_access(&mut self, tid: ThreadId, range: &AddrRange) -> bool {
        self.record(tid, range).1
    }

    fn record(&mut self, tid: ThreadId, range: &AddrRange) -> (bool, bool) {
        let (mut was_public, mut private) = (false, true);
        for (line, mask) in line_masks(range) {
            let w = self.lines.entry(line).or_insert(LineWords::UNTOUCHED);
            was_public |= w.published & mask != 0;
            self.tracked += (mask & !w.touched).count_ones() as usize;
            // A fresh word becomes `tid`'s; another thread's private word
            // is published.
            for i in bits(mask & !w.published) {
                if w.touched & (1 << i) == 0 {
                    w.owners[i] = tid;
                } else if w.owners[i] != tid {
                    w.published |= 1 << i;
                }
            }
            w.touched |= mask;
            private &= w.published & mask == 0;
        }
        (was_public, private)
    }

    /// Whether every word of `mask` in `line` is touched, unpublished and
    /// `tid`'s.
    fn private_to(&self, line: LineId, tid: ThreadId, mask: u8) -> bool {
        self.lines.get(&line).is_some_and(|w| {
            w.touched & mask == mask
                && w.published & mask == 0
                && bits(mask).all(|i| w.owners[i] == tid)
        })
    }

    /// Returns `true` if every word of `range` is still private to `tid`.
    ///
    /// This is the discard condition for a persisted store window: the
    /// store was persisted while its memory was exclusively owned by the
    /// storing thread, so it is initialization and cannot race.
    pub fn all_private_to(&self, tid: ThreadId, range: &AddrRange) -> bool {
        line_masks(range).all(|(line, mask)| self.private_to(line, tid, mask))
    }

    /// Returns `true` if any word of `range` has been published.
    pub fn is_published(&self, range: &AddrRange) -> bool {
        line_masks(range).any(|(line, mask)| {
            self.lines
                .get(&line)
                .is_some_and(|w| w.published & mask != 0)
        })
    }

    /// Number of tracked words (cost accounting).
    pub fn tracked_words(&self) -> usize {
        self.tracked
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::HashMap;

    const T0: ThreadId = ThreadId(0);
    const T1: ThreadId = ThreadId(1);

    #[test]
    fn first_access_claims_words() {
        let mut p = PublicationTracker::new();
        let r = AddrRange::new(0, 16);
        assert!(!p.record_access(T0, &r));
        assert!(p.all_private_to(T0, &r));
        assert!(!p.all_private_to(T1, &r));
        assert!(!p.is_published(&r));
    }

    #[test]
    fn second_thread_publishes() {
        let mut p = PublicationTracker::new();
        let r = AddrRange::new(0, 8);
        p.record_access(T0, &r);
        // The publishing access itself reports "not yet public"...
        assert!(!p.record_access(T1, &r));
        // ...but from then on the word is published.
        assert!(p.is_published(&r));
        assert!(!p.all_private_to(T0, &r));
        assert!(p.record_access(T0, &r));
    }

    #[test]
    fn publication_is_sticky_across_reuse() {
        // Free + reallocate does not reset the tracker: exactly the
        // memcached limitation of §7.
        let mut p = PublicationTracker::new();
        let r = AddrRange::new(64, 8);
        p.record_access(T0, &r);
        p.record_access(T1, &r);
        assert!(p.is_published(&r));
        // "Reallocation" by T0: still published.
        assert!(p.record_access(T0, &r));
        assert!(!p.all_private_to(T0, &r));
    }

    #[test]
    fn partial_publication_is_detected() {
        let mut p = PublicationTracker::new();
        let whole = AddrRange::new(0, 16); // words 0 and 1
        let first_word = AddrRange::new(0, 8);
        p.record_access(T0, &whole);
        p.record_access(T1, &first_word);
        assert!(p.is_published(&whole));
        assert!(!p.all_private_to(T0, &whole));
        assert!(p.all_private_to(T0, &AddrRange::new(8, 8)));
    }

    #[test]
    fn untouched_words_are_not_private() {
        let p = PublicationTracker::new();
        assert!(!p.all_private_to(T0, &AddrRange::new(0, 8)));
        assert!(!p.is_published(&AddrRange::new(0, 8)));
    }

    /// Per-word publication state of the reference model.
    #[derive(Clone, Copy, PartialEq, Eq)]
    enum WordState {
        Sole(ThreadId),
        Published,
    }

    /// The per-word tracker the line table replaced: one map entry per
    /// word, the rules of §3.1.3 spelled out word by word. The reference
    /// the line table must agree with on every query.
    #[derive(Default)]
    struct PerWord {
        words: HashMap<u64, WordState>,
    }

    impl PerWord {
        fn record_access(&mut self, tid: ThreadId, range: &AddrRange) -> bool {
            let mut any_public = false;
            for w in range.words() {
                match self.words.get(&w) {
                    None => {
                        self.words.insert(w, WordState::Sole(tid));
                    }
                    Some(WordState::Sole(owner)) if *owner == tid => {}
                    Some(WordState::Sole(_)) => {
                        self.words.insert(w, WordState::Published);
                    }
                    Some(WordState::Published) => any_public = true,
                }
            }
            any_public
        }

        fn all_private_to(&self, tid: ThreadId, range: &AddrRange) -> bool {
            range
                .words()
                .all(|w| self.words.get(&w) == Some(&WordState::Sole(tid)))
        }

        fn is_published(&self, range: &AddrRange) -> bool {
            range
                .words()
                .any(|w| self.words.get(&w) == Some(&WordState::Published))
        }
    }

    /// Thread ids on both sides of every encoding edge: small, the last
    /// and first past a 64-bit mask, and the largest.
    const TIDS: [u32; 7] = [0, 1, 2, 3, 63, 64, u32::MAX];

    /// A range in one of two 2 KiB windows — the bottom of the address
    /// space or its very top, where `end()` saturates — so that random
    /// accesses collide. Lengths are short (within a line or just across
    /// one) or up to 4 KiB (across dozens of lines).
    fn arb_range() -> impl Strategy<Value = AddrRange> {
        (
            any::<bool>(),
            0u64..2048,
            any::<bool>(),
            1u32..=16,
            1u32..=4096,
        )
            .prop_map(|(top, off, short, small, large)| {
                let start = if top { u64::MAX - off } else { off };
                AddrRange::new(start, if short { small } else { large })
            })
    }

    /// One step: who accesses what, whether through the load path's
    /// combined call, and a probe made afterwards.
    fn arb_step() -> impl Strategy<Value = (u32, AddrRange, bool, u32, AddrRange)> {
        (0u32..7, arb_range(), any::<bool>(), 0u32..7, arb_range()).prop_map(
            |(tid, range, combined, probe_tid, probe)| {
                (
                    TIDS[tid as usize],
                    range,
                    combined,
                    TIDS[probe_tid as usize],
                    probe,
                )
            },
        )
    }

    proptest! {
        /// The line table answers every query exactly as the per-word
        /// reference does, after every step of a random access sequence.
        #[test]
        fn line_table_matches_the_per_word_reference(steps in collection::vec(arb_step(), 1..60)) {
            let mut lines = PublicationTracker::new();
            let mut words = PerWord::default();
            for (tid, range, combined, probe_tid, probe) in steps {
                let (tid, probe_tid) = (ThreadId(tid), ThreadId(probe_tid));
                let reference = words.record_access(tid, &range);
                if combined {
                    prop_assert_eq!(
                        lines.record_private_access(tid, &range),
                        words.all_private_to(tid, &range),
                        "record_private_access({:?}, {:?})", tid, range
                    );
                } else {
                    prop_assert_eq!(
                        lines.record_access(tid, &range),
                        reference,
                        "record_access({:?}, {:?})", tid, range
                    );
                }
                prop_assert_eq!(lines.tracked_words(), words.words.len());
                for (who, r) in [(tid, range), (probe_tid, probe), (probe_tid, range), (tid, probe)] {
                    prop_assert_eq!(
                        lines.all_private_to(who, &r),
                        words.all_private_to(who, &r),
                        "all_private_to({:?}, {:?})", who, r
                    );
                    prop_assert_eq!(lines.is_published(&r), words.is_published(&r), "is_published({:?})", r);
                }
            }
        }
    }
}
