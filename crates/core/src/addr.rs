//! Persistent-memory address arithmetic.
//!
//! HawkSet reasons about PM at two granularities: raw byte ranges (for
//! overlap-aware race pairing, §3.2 "partially overlapping races") and
//! 64-byte cache lines (for the worst-case persistence simulation, §3.2
//! stage 1). This module provides both.

use serde::{Deserialize, Serialize};

/// Size of a cache line in bytes on the simulated platform.
///
/// Intel Optane persistency operates at cache-line granularity: `clwb`,
/// `clflushopt` and `clflush` all write back one line.
pub const CACHE_LINE: u64 = 64;

/// A byte address inside the simulated persistent address space.
///
/// Addresses are plain `u64`s; the runtime assigns each mapped PM pool a
/// disjoint base so that addresses are globally unique across pools, exactly
/// like virtual addresses of `mmap`ed DAX files in the original tool.
pub type PmAddr = u64;

/// Identifier of a 64-byte cache line (the address divided by [`CACHE_LINE`]).
pub type LineId = u64;

/// Returns the cache line containing `addr`.
#[inline]
pub fn line_of(addr: PmAddr) -> LineId {
    addr / CACHE_LINE
}

/// Returns the first byte address of cache line `line`.
#[inline]
pub fn line_base(line: LineId) -> PmAddr {
    line * CACHE_LINE
}

/// A half-open byte range `[start, start + len)` in PM.
///
/// Ranges are the unit of access in the trace: every store and load carries
/// one. The analysis pairs accesses whose ranges overlap, which is how
/// HawkSet "detects partially overlapping races" (§3.2).
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct AddrRange {
    /// First byte of the access.
    pub start: PmAddr,
    /// Length of the access in bytes. Always non-zero for real accesses.
    pub len: u32,
}

impl AddrRange {
    /// Creates a range covering `len` bytes starting at `start`.
    #[inline]
    pub const fn new(start: PmAddr, len: u32) -> Self {
        Self { start, len }
    }

    /// One byte past the end of the range.
    ///
    /// Saturating: a corrupt trace can carry a range whose end would wrap
    /// past the address space, and the analysis must degrade rather than
    /// panic on it (real accesses never get near the top of the space).
    #[inline]
    pub const fn end(&self) -> PmAddr {
        self.start.saturating_add(self.len as u64)
    }

    /// Returns `true` if the two ranges share at least one byte.
    #[inline]
    pub fn overlaps(&self, other: &AddrRange) -> bool {
        self.start < other.end() && other.start < self.end()
    }

    /// Returns `true` if `other` is fully contained in `self`.
    #[inline]
    pub fn contains(&self, other: &AddrRange) -> bool {
        self.start <= other.start && other.end() <= self.end()
    }

    /// Returns the overlapping sub-range, if any.
    pub fn intersection(&self, other: &AddrRange) -> Option<AddrRange> {
        let start = self.start.max(other.start);
        let end = self.end().min(other.end());
        if start < end {
            Some(AddrRange::new(start, (end - start) as u32))
        } else {
            None
        }
    }

    /// Subtracts `other` from `self`, yielding up to two remaining pieces.
    ///
    /// Used by the store-window tracker: an overwrite of the middle of an
    /// earlier store leaves the earlier store's head and tail still visible.
    pub fn subtract(&self, other: &AddrRange) -> (Option<AddrRange>, Option<AddrRange>) {
        let head = if other.start > self.start {
            let end = other.start.min(self.end());
            Some(AddrRange::new(self.start, (end - self.start) as u32))
        } else {
            None
        };
        let tail = if other.end() < self.end() {
            let start = other.end().max(self.start);
            Some(AddrRange::new(start, (self.end() - start) as u32))
        } else {
            None
        };
        (head, tail)
    }

    /// Iterates over the ids of every cache line the range touches.
    pub fn lines(&self) -> impl Iterator<Item = LineId> {
        let first = line_of(self.start);
        let last = line_of(self.end().saturating_sub(1).max(self.start));
        first..=last
    }

    /// Iterates over the 8-byte-aligned word ids the range touches.
    ///
    /// Words are the granularity of the Initialization Removal Heuristic's
    /// publication tracking (§3.1.3).
    pub fn words(&self) -> impl Iterator<Item = u64> {
        let (first, last) = self.word_span();
        first..=last
    }

    /// The first and last word ids [`words`](Self::words) yields. An empty
    /// range touches the word holding its start.
    #[inline]
    pub fn word_span(&self) -> (u64, u64) {
        (
            self.start / 8,
            self.end().saturating_sub(1).max(self.start) / 8,
        )
    }

    /// Returns `true` if the range crosses a cache-line boundary.
    ///
    /// Cross-line accesses are what make TurboHash's bug #3 possible: the
    /// metadata flush covers only the first line of the bucket entry.
    pub fn crosses_line(&self) -> bool {
        line_of(self.start) != line_of(self.end().saturating_sub(1).max(self.start))
    }
}

impl core::fmt::Debug for AddrRange {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "{:#x}+{}", self.start, self.len)
    }
}

impl core::fmt::Display for AddrRange {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "[{:#x}, {:#x})", self.start, self.end())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn line_math() {
        assert_eq!(line_of(0), 0);
        assert_eq!(line_of(63), 0);
        assert_eq!(line_of(64), 1);
        assert_eq!(line_base(2), 128);
    }

    #[test]
    fn overlap_basic() {
        let a = AddrRange::new(0, 8);
        let b = AddrRange::new(4, 8);
        let c = AddrRange::new(8, 8);
        assert!(a.overlaps(&b));
        assert!(b.overlaps(&a));
        assert!(!a.overlaps(&c));
        assert!(!c.overlaps(&a));
    }

    #[test]
    fn overlap_adjacent_is_disjoint() {
        let a = AddrRange::new(100, 4);
        let b = AddrRange::new(104, 4);
        assert!(!a.overlaps(&b));
    }

    #[test]
    fn contains_and_intersection() {
        let outer = AddrRange::new(0, 64);
        let inner = AddrRange::new(16, 8);
        assert!(outer.contains(&inner));
        assert!(!inner.contains(&outer));
        assert_eq!(outer.intersection(&inner), Some(inner));
        assert_eq!(
            AddrRange::new(0, 8).intersection(&AddrRange::new(4, 8)),
            Some(AddrRange::new(4, 4))
        );
        assert_eq!(
            AddrRange::new(0, 4).intersection(&AddrRange::new(4, 4)),
            None
        );
    }

    #[test]
    fn subtract_middle_leaves_head_and_tail() {
        let whole = AddrRange::new(0, 24);
        let mid = AddrRange::new(8, 8);
        let (head, tail) = whole.subtract(&mid);
        assert_eq!(head, Some(AddrRange::new(0, 8)));
        assert_eq!(tail, Some(AddrRange::new(16, 8)));
    }

    #[test]
    fn subtract_full_cover_leaves_nothing() {
        let whole = AddrRange::new(8, 8);
        let cover = AddrRange::new(0, 32);
        assert_eq!(whole.subtract(&cover), (None, None));
    }

    #[test]
    fn subtract_prefix_and_suffix() {
        let whole = AddrRange::new(0, 16);
        let (head, tail) = whole.subtract(&AddrRange::new(0, 8));
        assert_eq!(head, None);
        assert_eq!(tail, Some(AddrRange::new(8, 8)));
        let (head, tail) = whole.subtract(&AddrRange::new(8, 8));
        assert_eq!(head, Some(AddrRange::new(0, 8)));
        assert_eq!(tail, None);
    }

    #[test]
    fn lines_iteration() {
        let r = AddrRange::new(60, 8); // crosses line 0 -> 1
        let lines: Vec<_> = r.lines().collect();
        assert_eq!(lines, vec![0, 1]);
        assert!(r.crosses_line());
        let r2 = AddrRange::new(0, 64);
        assert!(!r2.crosses_line());
        assert_eq!(r2.lines().collect::<Vec<_>>(), vec![0]);
    }

    #[test]
    fn words_iteration() {
        let r = AddrRange::new(6, 4); // words 0 and 1
        assert_eq!(r.words().collect::<Vec<_>>(), vec![0, 1]);
    }
}
