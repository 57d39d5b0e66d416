//! Generic hash-consing.
//!
//! §4: "locksets and vector clocks are shared across PM accesses since …
//! the number of accesses far outnumbers the amount of locksets and vector
//! clocks, by several orders of magnitude. Moreover, backtraces, locksets,
//! and vector clocks are unique and identifiable by a unique integer, which
//! allows … direct comparison, fast hashing, and memory usage" savings.
//!
//! [`Interner`] provides exactly that: values are stored once and referred
//! to by a dense `u32` id. Identity of ids implies equality of values, so
//! the analysis compares interned locksets with a single integer compare.

use std::hash::Hash;

use crate::hash::FxHashMap;

/// Dense id of an interned value.
pub struct Interned<T> {
    id: u32,
    _marker: core::marker::PhantomData<fn() -> T>,
}

// Manual impls: the derives would wrongly require `T: Copy` etc., but an id
// is always a plain integer regardless of `T`.
impl<T> Clone for Interned<T> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<T> Copy for Interned<T> {}
impl<T> PartialEq for Interned<T> {
    fn eq(&self, other: &Self) -> bool {
        self.id == other.id
    }
}
impl<T> Eq for Interned<T> {}
impl<T> PartialOrd for Interned<T> {
    fn partial_cmp(&self, other: &Self) -> Option<core::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<T> Ord for Interned<T> {
    fn cmp(&self, other: &Self) -> core::cmp::Ordering {
        self.id.cmp(&other.id)
    }
}
impl<T> Hash for Interned<T> {
    fn hash<H: core::hash::Hasher>(&self, state: &mut H) {
        self.id.hash(state);
    }
}
impl<T> core::fmt::Debug for Interned<T> {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "#{}", self.id)
    }
}

impl<T> Interned<T> {
    /// The raw id.
    #[inline]
    pub fn id(self) -> u32 {
        self.id
    }

    /// Rebuilds an id from its raw value.
    ///
    /// Only meaningful for ids previously produced by the same interner.
    #[inline]
    pub fn from_raw(id: u32) -> Self {
        Self {
            id,
            _marker: core::marker::PhantomData,
        }
    }
}

/// A hash-consing table mapping values to dense ids.
#[derive(Clone, Debug)]
pub struct Interner<T> {
    values: Vec<T>,
    /// Value → id probe table. Lookup-only (iteration goes through the
    /// dense `values` vec), so the fast deterministic hasher is safe.
    ids: FxHashMap<T, u32>,
    /// Total number of intern requests, for hit-rate statistics.
    requests: u64,
}

impl<T: Clone + Eq + Hash> Interner<T> {
    /// Creates an empty interner.
    pub fn new() -> Self {
        Self {
            values: Vec::new(),
            ids: FxHashMap::default(),
            requests: 0,
        }
    }

    /// Interns `value`, returning its id. Equal values share one id.
    pub fn intern(&mut self, value: T) -> Interned<T> {
        self.requests += 1;
        if let Some(&id) = self.ids.get(&value) {
            return Interned::from_raw(id);
        }
        let id = u32::try_from(self.values.len()).expect("interner overflow");
        self.ids.insert(value.clone(), id);
        self.values.push(value);
        Interned::from_raw(id)
    }

    /// Returns the value for `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` was not produced by this interner.
    #[inline]
    pub fn get(&self, id: Interned<T>) -> &T {
        &self.values[id.id() as usize]
    }

    /// Number of distinct values stored.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Returns `true` if nothing has been interned.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Total intern requests (for the sharing-ratio statistic of §4).
    pub fn requests(&self) -> u64 {
        self.requests
    }

    /// Iterates over all distinct values with their ids.
    pub fn iter(&self) -> impl Iterator<Item = (Interned<T>, &T)> {
        self.values
            .iter()
            .enumerate()
            .map(|(i, v)| (Interned::from_raw(i as u32), v))
    }
}

impl<T: Clone + Eq + Hash> Default for Interner<T> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn equal_values_share_ids() {
        let mut i: Interner<Vec<u32>> = Interner::new();
        let a = i.intern(vec![1, 2, 3]);
        let b = i.intern(vec![1, 2, 3]);
        let c = i.intern(vec![4]);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(i.len(), 2);
        assert_eq!(i.requests(), 3);
        assert_eq!(i.get(a), &vec![1, 2, 3]);
        assert_eq!(i.get(c), &vec![4]);
    }

    #[test]
    fn ids_are_dense_and_stable() {
        let mut i: Interner<&'static str> = Interner::new();
        let a = i.intern("x");
        let b = i.intern("y");
        assert_eq!(a.id(), 0);
        assert_eq!(b.id(), 1);
        assert_eq!(i.intern("x"), a);
        let collected: Vec<_> = i.iter().map(|(id, v)| (id.id(), *v)).collect();
        assert_eq!(collected, vec![(0, "x"), (1, "y")]);
    }
}
