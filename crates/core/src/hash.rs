//! The workspace's non-cryptographic hashes.
//!
//! * [`FxHasher`] — a fast, deterministic hasher for hot lookup tables.
//!   The pairing engine's inner loop is dominated by `HashMap` probes on
//!   small integer-tuple keys (memo tables, per-word indexes, interner
//!   lookups). The std `SipHash` default is keyed and DoS-resistant but
//!   costs tens of cycles per key; this module provides the classic
//!   multiply-rotate "Fx" scheme used by rustc — a couple of cycles per
//!   word, and *fixed* (unseeded), so hash tables behave identically across
//!   runs.
//! * [`fnv1a`] / [`fnv1a_u64`] — 64-bit FNV-1a, the stable mixing function
//!   behind every value that leaves the process or must replay: workload
//!   keys and app bucket placement, crash-point placement, delay
//!   decisions and serve snapshot checksums. Its outputs are part of those
//!   formats, so they never change. Config fingerprints are not hashed at
//!   all: the analysis and campaign checkpoints carry readable
//!   `key=value` strings, so a refused resume can name the knob.
//!
//! Safety rule for call sites: swap in [`FxHashMap`] only on maps whose
//! iteration order never reaches an observable result (lookup-only memos,
//! probe indexes). Maps that are iterated to build reports keep the std
//! hasher or get an explicit deterministic sort.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// A `HashMap` keyed by the deterministic [`FxHasher`].
pub type FxHashMap<K, V> = HashMap<K, V, BuildHasherDefault<FxHasher>>;

/// A `HashSet` keyed by the deterministic [`FxHasher`].
pub type FxHashSet<T> = HashSet<T, BuildHasherDefault<FxHasher>>;

const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;
const ROTATE: u32 = 5;

/// Multiply-rotate hasher (rustc's `FxHasher` scheme): each input word is
/// folded in with `hash = (hash.rotl(5) ^ word) * SEED`.
#[derive(Default, Clone)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add_to_hash(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(ROTATE) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            self.add_to_hash(u64::from_le_bytes(chunk.try_into().unwrap()));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut tail = [0u8; 8];
            tail[..rest.len()].copy_from_slice(rest);
            self.add_to_hash(u64::from_le_bytes(tail));
            // Length-tag the ragged tail so "ab" and "ab\0" differ.
            self.add_to_hash(rest.len() as u64);
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add_to_hash(i as u64);
    }

    #[inline]
    fn write_u16(&mut self, i: u16) {
        self.add_to_hash(i as u64);
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add_to_hash(i as u64);
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add_to_hash(i);
    }

    #[inline]
    fn write_u128(&mut self, i: u128) {
        self.add_to_hash(i as u64);
        self.add_to_hash((i >> 64) as u64);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add_to_hash(i as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x100_0000_01b3;

/// 64-bit FNV-1a over `bytes`.
#[inline]
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = FNV_OFFSET;
    for &b in bytes {
        h = (h ^ u64::from(b)).wrapping_mul(FNV_PRIME);
    }
    h
}

/// 64-bit FNV-1a over the little-endian bytes of `x` — the integer mixer
/// behind workload keys, bucket placement and crash-point placement. It
/// runs on every instrumented operation of some apps, so it shifts bytes
/// out of `x` instead of building a slice for [`fnv1a`], which costs more
/// in unoptimized test builds and shifts their real-thread interleavings.
#[inline]
pub fn fnv1a_u64(mut x: u64) -> u64 {
    let mut h = FNV_OFFSET;
    for _ in 0..8 {
        h = (h ^ (x & 0xff)).wrapping_mul(FNV_PRIME);
        x >>= 8;
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, BuildHasherDefault, Hash};

    fn hash_of<T: Hash>(v: &T) -> u64 {
        BuildHasherDefault::<FxHasher>::default().hash_one(v)
    }

    #[test]
    fn deterministic_across_builders() {
        let k = (0xdead_beefu64, 42u32, true);
        assert_eq!(hash_of(&k), hash_of(&k));
        assert_eq!(hash_of(&"hello"), hash_of(&"hello"));
    }

    #[test]
    fn distinguishes_nearby_keys() {
        assert_ne!(hash_of(&1u64), hash_of(&2u64));
        assert_ne!(hash_of(&(1u32, 2u32)), hash_of(&(2u32, 1u32)));
        assert_ne!(hash_of(&[1u8, 2]), hash_of(&[1u8, 2, 0]));
    }

    #[test]
    fn map_roundtrip() {
        let mut m: FxHashMap<(u32, u32, u32), bool> = FxHashMap::default();
        for i in 0..1000u32 {
            m.insert((i, i.wrapping_mul(7), i ^ 0xff), i % 3 == 0);
        }
        assert_eq!(m.len(), 1000);
        assert_eq!(m.get(&(9, 63, 9 ^ 0xff)), Some(&true));
    }

    #[test]
    fn fnv1a_values_are_pinned() {
        // Reference vectors of 64-bit FNV-1a; workload keys, crash
        // placement, delay decisions and snapshot checksums all depend on
        // these exact values.
        assert_eq!(fnv1a(b""), 0xcbf29ce484222325);
        assert_eq!(fnv1a(b"a"), 0xaf63dc4c8601ec8c);
        for x in [0u64, 1, 0xff, 0xdead_beef, u64::MAX] {
            assert_eq!(fnv1a_u64(x), fnv1a(&x.to_le_bytes()));
        }
    }
}
