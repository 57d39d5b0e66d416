//! Pool handles: the application-facing PM access API.
//!
//! A [`PmPool`] stands for one `mmap`ed DAX file. All accesses go through
//! typed helpers that record trace events atomically with the operation.
//! Addresses are absolute within the simulated address space (pools get
//! disjoint bases), so a `PmAddr` is self-describing — just like a virtual
//! address in the original tool.

use std::panic::Location;

use hawkset_core::addr::{AddrRange, PmAddr};

use crate::env::PmEnv;
use crate::thread::PmThread;

/// Handle to a mapped PM pool. Cheap to clone; all clones refer to the same
/// memory.
#[derive(Clone)]
pub struct PmPool {
    env: PmEnv,
    index: usize,
    base: PmAddr,
    len: u64,
}

impl PmPool {
    pub(crate) fn new(env: PmEnv, index: usize, base: PmAddr, len: u64) -> Self {
        Self {
            env,
            index,
            base,
            len,
        }
    }

    /// First byte of the pool in the simulated address space.
    pub fn base(&self) -> PmAddr {
        self.base
    }

    /// Pool size in bytes.
    pub fn len(&self) -> u64 {
        self.len
    }

    /// Returns `true` for zero-length pools (never produced by
    /// [`PmEnv::map_pool`], which rounds up to a cache line).
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The environment this pool belongs to.
    pub fn env(&self) -> &PmEnv {
        &self.env
    }

    fn check(&self, addr: PmAddr, len: usize) {
        assert!(
            addr >= self.base && addr + len as u64 <= self.base + self.len,
            "PM access [{addr:#x}, {:#x}) outside pool [{:#x}, {:#x})",
            addr + len as u64,
            self.base,
            self.base + self.len,
        );
    }

    // ---- stores ----

    /// Stores raw bytes.
    #[track_caller]
    pub fn store_bytes(&self, t: &PmThread, addr: PmAddr, bytes: &[u8]) {
        self.check(addr, bytes.len());
        self.env
            .store_at(t, self.index, addr, bytes, false, false, Location::caller());
    }

    /// Stores a little-endian `u64`.
    #[track_caller]
    pub fn store_u64(&self, t: &PmThread, addr: PmAddr, value: u64) {
        self.check(addr, 8);
        self.env.store_at(
            t,
            self.index,
            addr,
            &value.to_le_bytes(),
            false,
            false,
            Location::caller(),
        );
    }

    /// Stores a little-endian `u32`.
    #[track_caller]
    pub fn store_u32(&self, t: &PmThread, addr: PmAddr, value: u32) {
        self.check(addr, 4);
        self.env.store_at(
            t,
            self.index,
            addr,
            &value.to_le_bytes(),
            false,
            false,
            Location::caller(),
        );
    }

    /// Stores one byte.
    #[track_caller]
    pub fn store_u8(&self, t: &PmThread, addr: PmAddr, value: u8) {
        self.check(addr, 1);
        self.env.store_at(
            t,
            self.index,
            addr,
            &[value],
            false,
            false,
            Location::caller(),
        );
    }

    /// Non-temporal store of raw bytes (bypasses the cache; persists at the
    /// issuing thread's next fence, no flush required).
    #[track_caller]
    pub fn store_bytes_nt(&self, t: &PmThread, addr: PmAddr, bytes: &[u8]) {
        self.check(addr, bytes.len());
        self.env
            .store_at(t, self.index, addr, bytes, true, false, Location::caller());
    }

    /// Non-temporal store of a `u64`.
    #[track_caller]
    pub fn store_u64_nt(&self, t: &PmThread, addr: PmAddr, value: u64) {
        self.check(addr, 8);
        self.env.store_at(
            t,
            self.index,
            addr,
            &value.to_le_bytes(),
            true,
            false,
            Location::caller(),
        );
    }

    /// Atomic store of a `u64` (lock-prefixed / `xchg`-style).
    #[track_caller]
    pub fn atomic_store_u64(&self, t: &PmThread, addr: PmAddr, value: u64) {
        self.check(addr, 8);
        self.env.store_at(
            t,
            self.index,
            addr,
            &value.to_le_bytes(),
            false,
            true,
            Location::caller(),
        );
    }

    // ---- loads ----

    /// Loads `N` bytes into a stack array.
    #[track_caller]
    fn load_array<const N: usize>(&self, t: &PmThread, addr: PmAddr, atomic: bool) -> [u8; N] {
        self.check(addr, N);
        let mut buf = [0; N];
        self.env
            .load_into(t, self.index, addr, &mut buf, atomic, Location::caller());
        buf
    }

    /// Loads raw bytes.
    #[track_caller]
    pub fn load_bytes(&self, t: &PmThread, addr: PmAddr, len: usize) -> Vec<u8> {
        self.check(addr, len);
        let mut buf = vec![0; len];
        self.env
            .load_into(t, self.index, addr, &mut buf, false, Location::caller());
        buf
    }

    /// Loads a little-endian `u64`.
    #[track_caller]
    pub fn load_u64(&self, t: &PmThread, addr: PmAddr) -> u64 {
        u64::from_le_bytes(self.load_array(t, addr, false))
    }

    /// Loads a little-endian `u32`.
    #[track_caller]
    pub fn load_u32(&self, t: &PmThread, addr: PmAddr) -> u32 {
        u32::from_le_bytes(self.load_array(t, addr, false))
    }

    /// Loads one byte.
    #[track_caller]
    pub fn load_u8(&self, t: &PmThread, addr: PmAddr) -> u8 {
        u8::from_le_bytes(self.load_array(t, addr, false))
    }

    /// Atomic load of a `u64`.
    #[track_caller]
    pub fn atomic_load_u64(&self, t: &PmThread, addr: PmAddr) -> u64 {
        u64::from_le_bytes(self.load_array(t, addr, true))
    }

    // ---- read-modify-write ----

    /// Compare-and-swap on a `u64`: returns `Ok(previous)` on success,
    /// `Err(actual)` on failure. Atomic with respect to every instrumented
    /// operation.
    #[track_caller]
    pub fn cas_u64(&self, t: &PmThread, addr: PmAddr, expected: u64, new: u64) -> Result<u64, u64> {
        self.check(addr, 8);
        self.env
            .cas_at(t, self.index, addr, expected, new, Location::caller())
    }

    /// Atomic fetch-add on a `u64`; returns the previous value.
    #[track_caller]
    pub fn fetch_add_u64(&self, t: &PmThread, addr: PmAddr, delta: u64) -> u64 {
        self.check(addr, 8);
        loop {
            let cur = self.atomic_load_u64(t, addr);
            match self.env.cas_at(
                t,
                self.index,
                addr,
                cur,
                cur.wrapping_add(delta),
                Location::caller(),
            ) {
                Ok(prev) => return prev,
                Err(_) => continue,
            }
        }
    }

    // ---- persistency ----

    /// Flushes the cache line containing `addr` (`clwb`-style). Must be
    /// followed by a fence on the same thread to guarantee persistence.
    #[track_caller]
    pub fn flush(&self, t: &PmThread, addr: PmAddr) {
        self.check(addr, 1);
        self.env.flush_at(t, addr, Location::caller());
    }

    /// Flushes every cache line overlapping `[addr, addr + len)`.
    #[track_caller]
    pub fn flush_range(&self, t: &PmThread, addr: PmAddr, len: usize) {
        self.check(addr, len.max(1));
        let range = AddrRange::new(addr, len.max(1) as u32);
        for line in range.lines() {
            self.env.flush_at(
                t,
                hawkset_core::addr::line_base(line).max(addr),
                Location::caller(),
            );
        }
    }

    /// Convenience: flush the range and fence (the canonical persist
    /// sequence `clwb; sfence`).
    #[track_caller]
    pub fn persist(&self, t: &PmThread, addr: PmAddr, len: usize) {
        self.flush_range(t, addr, len);
        self.env.fence_at(t, Location::caller());
    }

    // ---- crash simulation ----

    /// Returns the bytes guaranteed to be in PM right now — what a crash at
    /// this instant would leave behind.
    pub fn crash_image(&self) -> Vec<u8> {
        self.env.crash_image(self.index)
    }

    /// Returns the cache-visible (volatile) content, for tests comparing
    /// visible vs durable state.
    pub fn volatile_image(&self) -> Vec<u8> {
        self.env.volatile_image(self.index)
    }

    /// Reads a `u64` directly from the *persistent* image (post-crash
    /// inspection; not an instrumented access).
    pub fn persistent_u64(&self, addr: PmAddr) -> u64 {
        let img = self.crash_image();
        let off = (addr - self.base) as usize;
        u64::from_le_bytes(img[off..off + 8].try_into().expect("8 bytes"))
    }
}
