//! Vector clocks for the inter-thread happens-before analysis (§3.1.2).
//!
//! HawkSet uses Fidge-style vector clocks, one logical counter per thread,
//! to prune pairs of PM accesses that can never execute concurrently —
//! e.g. an unprotected initialization store that happens-before the creation
//! of every other thread (Figure 3). Clock maintenance rules:
//!
//! * thread creation increments the parent's counter, the child copies the
//!   parent's clock and increments its own counter;
//! * a PM access increments the issuing thread's counter (batched: only the
//!   first access after a create/join boundary actually increments, §4);
//! * thread join merges the joined thread's clock into the waiting thread.

use serde::{Deserialize, Serialize};

use crate::trace::ThreadId;

/// A vector clock: one logical counter per thread.
///
/// Clocks are conceptually infinite vectors of zeros; the stored prefix only
/// covers threads with non-zero entries, so comparing clocks of different
/// lengths is well defined.
#[derive(Clone, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub struct VectorClock {
    counters: Vec<u32>,
}

/// The result of comparing two vector clocks under the happens-before
/// partial order.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ClockOrder {
    /// The clocks are identical.
    Equal,
    /// Left happens-before right.
    Before,
    /// Right happens-before left.
    After,
    /// Neither happens-before the other: the operations are concurrent.
    Concurrent,
}

impl VectorClock {
    /// The zero clock.
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds a clock from explicit counters (testing convenience).
    pub fn from_counters(counters: impl Into<Vec<u32>>) -> Self {
        let mut c = Self {
            counters: counters.into(),
        };
        c.normalize();
        c
    }

    fn normalize(&mut self) {
        while self.counters.last() == Some(&0) {
            self.counters.pop();
        }
    }

    /// Returns thread `tid`'s counter.
    pub fn get(&self, tid: ThreadId) -> u32 {
        self.counters.get(tid.index()).copied().unwrap_or(0)
    }

    /// Increments thread `tid`'s counter by one.
    pub fn tick(&mut self, tid: ThreadId) {
        if self.counters.len() <= tid.index() {
            self.counters.resize(tid.index() + 1, 0);
        }
        self.counters[tid.index()] += 1;
    }

    /// Merges `other` into `self` (pointwise maximum) — the join rule.
    pub fn merge(&mut self, other: &VectorClock) {
        if self.counters.len() < other.counters.len() {
            self.counters.resize(other.counters.len(), 0);
        }
        for (mine, theirs) in self.counters.iter_mut().zip(other.counters.iter()) {
            *mine = (*mine).max(*theirs);
        }
    }

    /// Compares two clocks under happens-before.
    pub fn compare(&self, other: &VectorClock) -> ClockOrder {
        let n = self.counters.len().max(other.counters.len());
        let mut less = false;
        let mut greater = false;
        for i in 0..n {
            let a = self.counters.get(i).copied().unwrap_or(0);
            let b = other.counters.get(i).copied().unwrap_or(0);
            if a < b {
                less = true;
            }
            if a > b {
                greater = true;
            }
            if less && greater {
                return ClockOrder::Concurrent;
            }
        }
        match (less, greater) {
            (false, false) => ClockOrder::Equal,
            (true, false) => ClockOrder::Before,
            (false, true) => ClockOrder::After,
            (true, true) => unreachable!("early-returned above"),
        }
    }

    /// Returns `true` if `self` happens-before `other` (strictly).
    pub fn happens_before(&self, other: &VectorClock) -> bool {
        self.compare(other) == ClockOrder::Before
    }

    /// Returns `true` if the two clocks are concurrent — there are indices
    /// `i`, `j` with `self[i] < other[i]` and `self[j] > other[j]` (§3.1.2).
    pub fn concurrent_with(&self, other: &VectorClock) -> bool {
        self.compare(other) == ClockOrder::Concurrent
    }

    /// Number of stored counters (highest thread index with activity + 1).
    pub fn width(&self) -> usize {
        self.counters.len()
    }

    /// Approximate heap footprint in bytes.
    pub fn approx_bytes(&self) -> usize {
        self.counters.capacity() * core::mem::size_of::<u32>()
    }
}

impl core::fmt::Debug for VectorClock {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "(")?;
        for (i, c) in self.counters.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{c}")?;
        }
        write!(f, ")")
    }
}

/// A FastTrack-style compressed clock: one thread id plus that thread's own
/// counter, `tid@time`.
///
/// An epoch captured from a *thread-local clock snapshot* — thread `t`'s
/// full clock `V_t` at a moment when `V_t[t] == time` — stands in for the
/// whole snapshot in happens-before queries against any other clock `W`:
///
/// > `V_t ⊑ W  ⟺  time ≤ W[t]`
///
/// The forward direction is immediate. The backward direction holds because
/// `t`'s own counter is advanced only by `t` itself and reaches other clocks
/// only through merges of `t`'s clock, so `W[t] ≥ time` implies `W` absorbed
/// a snapshot of `t` taken at own-time `≥ time` — which dominates `V_t` as
/// long as `t`'s clock grows monotonically and equal own-times denote equal
/// snapshots. The simulator maintains exactly those invariants (and demotes
/// the whole run to full-clock comparisons when an ill-formed trace breaks
/// them, see [`AccessSet::epoch_sound`]); the pairing engine then answers
/// the common-case ordering query in O(1) instead of O(threads).
///
/// [`AccessSet::epoch_sound`]: crate::memsim::AccessSet::epoch_sound
#[derive(Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Epoch {
    /// The thread the snapshot belongs to.
    pub tid: ThreadId,
    /// That thread's own counter at the snapshot.
    pub time: u32,
}

impl Epoch {
    /// Captures the epoch of `clock` as seen by `tid` — valid as a snapshot
    /// stand-in only when `clock` IS thread `tid`'s clock at capture time.
    pub fn of(tid: ThreadId, clock: &VectorClock) -> Self {
        Self {
            tid,
            time: clock.get(tid),
        }
    }

    /// `snapshot ⊑ other`: the O(1) happens-before-or-equal test against a
    /// full clock (see the type-level soundness argument).
    #[inline]
    pub fn le_clock(&self, other: &VectorClock) -> bool {
        self.time <= other.get(self.tid)
    }
}

impl core::fmt::Debug for Epoch {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "{}@{}", self.tid, self.time)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vc(c: &[u32]) -> VectorClock {
        VectorClock::from_counters(c.to_vec())
    }

    #[test]
    fn zero_clock_equals_itself() {
        assert_eq!(vc(&[]).compare(&vc(&[0, 0])), ClockOrder::Equal);
    }

    #[test]
    fn tick_and_get() {
        let mut c = VectorClock::new();
        c.tick(ThreadId(2));
        c.tick(ThreadId(2));
        c.tick(ThreadId(0));
        assert_eq!(c.get(ThreadId(0)), 1);
        assert_eq!(c.get(ThreadId(1)), 0);
        assert_eq!(c.get(ThreadId(2)), 2);
    }

    #[test]
    fn merge_is_pointwise_max() {
        let mut a = vc(&[3, 0, 1]);
        a.merge(&vc(&[1, 2]));
        assert_eq!(a, vc(&[3, 2, 1]));
    }

    #[test]
    fn ordering_cases() {
        assert_eq!(vc(&[1, 0]).compare(&vc(&[2, 0])), ClockOrder::Before);
        assert_eq!(vc(&[2, 1]).compare(&vc(&[2, 0])), ClockOrder::After);
        assert_eq!(vc(&[1, 0]).compare(&vc(&[0, 1])), ClockOrder::Concurrent);
        assert!(vc(&[1, 0]).concurrent_with(&vc(&[0, 1])));
        assert!(vc(&[1, 0]).happens_before(&vc(&[1, 1])));
        assert!(!vc(&[1, 1]).happens_before(&vc(&[1, 1])));
    }

    /// The worked example of Figure 3: `Store1` by T1 (paper numbering) is
    /// ordered before the loads of both children; the children are mutually
    /// concurrent.
    #[test]
    fn figure3_scenario() {
        // Paper's T1/T2/T3 are our T0/T1/T2.
        let store1 = vc(&[1, 0, 0]); // T0's first PM access
        let t1_load = vc(&[3, 1, 0]); // after T0 created T1 at (3,0,0)
        let t2_load = vc(&[5, 0, 1]); // after T0 created T2 at (5,0,0)
        assert!(store1.happens_before(&t1_load));
        assert!(store1.happens_before(&t2_load));
        assert!(t1_load.concurrent_with(&t2_load));

        // Store3/Persist3: the *store* clock precedes T2's creation, but the
        // *persist* clock is concurrent with T2's load — which is exactly why
        // the HB filter must use the persist clock (§3.1.2).
        let store3 = vc(&[4, 0, 0]);
        let persist3 = vc(&[6, 0, 0]);
        assert!(store3.happens_before(&t2_load));
        assert!(persist3.concurrent_with(&t2_load));
    }

    #[test]
    fn epoch_le_clock_matches_full_compare_on_snapshots() {
        // A thread's clock is always a snapshot of itself, so `E ⊑ V` must
        // agree with the full comparison for every (snapshot, clock) pair.
        let clocks = [
            vc(&[0, 0, 0]),
            vc(&[1, 0, 0]),
            vc(&[3, 1, 0]),
            vc(&[5, 0, 1]),
            vc(&[2, 7, 4]),
        ];
        for owner in &clocks {
            for tid in 0..3u32 {
                let e = Epoch::of(ThreadId(tid), owner);
                assert_eq!(e.tid, ThreadId(tid));
                assert_eq!(e.time, owner.get(ThreadId(tid)));
            }
        }
        // Snapshot semantics: T1's snapshot at own-time 1 (clock (3,1,0))
        // is ⊑ any clock that merged it.
        let snap = Epoch::of(ThreadId(1), &vc(&[3, 1, 0]));
        assert!(snap.le_clock(&vc(&[3, 1, 0])));
        assert!(snap.le_clock(&vc(&[4, 2, 1])));
        assert!(!snap.le_clock(&vc(&[9, 0, 9])));
    }
}
