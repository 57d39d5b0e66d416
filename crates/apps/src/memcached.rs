//! Memcached-pmem: Lenovo's PM-enabled fork of memcached.
//!
//! Items live in PM, carved from a slab allocator that aggressively reuses
//! freed slots; a hash table with segment locks indexes them, an LRU list
//! orders them, and the hot read path is lock-free. Six of its
//! persistency-induced races were reported by PMRace and are reproduced
//! here (Table 2 #10–#15):
//!
//! * **#10/#11** — `append`/`prepend` build a *new* item from a possibly
//!   unpersisted old one; the new item's size field (`memcached.c:4292`)
//!   and data (`:4293`) are published without being persisted and a get
//!   loads them (`memcached.c:2805`).
//! * **#12** — `do_item_link` leaves the item's LRU linkage unpersisted
//!   (`items.c:423`); the LRU crawler walks it (`items.c:464`).
//! * **#13** — the slab free-list head is stored without persistence
//!   (`slabs.c:549`); allocation reads it (`slabs.c:412`).
//! * **#14** — the LRU bump rewrites linkage unpersisted (`items.c:1096`);
//!   the get path reads item metadata (`memcached.c:2824`).
//! * **#15** — `do_item_update` stores the access time unpersisted
//!   (`items.c:627`) racing the lock-free staleness check (`items.c:623`).
//!
//! Memcached is also the Table 4 outlier: slab **reuse** keeps item memory
//! published forever, so re-initialization stores are never pruned by the
//! Initialization Removal Heuristic and surface as false positives (§7) —
//! that population comes from `memcached::item_init` on recycled slots.

use std::sync::Arc;

use hawkset_core::addr::PmAddr;
use hawkset_core::hash::fnv1a_u64;
use pm_runtime::{run_workers, PmAllocator, PmEnv, PmMutex, PmPool, PmThread};
use pm_workloads::{memcached_workload, CacheOp};

use crate::app::{env_for, AppWorkload, Application, ExecOptions, ExecResult};
use crate::registry::KnownRace;

const NBUCKETS: u64 = 4096;
const NSEGMENTS: usize = 16;

/// Pool header: LRU head, LRU tail, slab free-list head, then the bucket
/// array.
const OFF_LRU_HEAD: u64 = 0;
const OFF_LRU_TAIL: u64 = 8;
const OFF_SLAB_HEAD: u64 = 16;
const OFF_BUCKETS: u64 = 64;

/// Item layout (slab slot, 192 bytes).
const IT_H_NEXT: u64 = 0;
const IT_LRU_NEXT: u64 = 8;
const IT_LRU_PREV: u64 = 16;
const IT_TIME: u64 = 24;
const IT_CAS: u64 = 32;
const IT_KEY: u64 = 40;
const IT_NBYTES: u64 = 48;
const IT_DATA: u64 = 56; // two u64 words: base value + appended/prepended
const ITEM_SIZE: u64 = 192;

/// Behaviour switches; bugs #10–#15 present by default.
#[derive(Clone, Copy, Debug)]
pub struct MemcachedBugs {
    /// Leave append/prepend item fields unpersisted (#10/#11).
    pub unpersisted_append: bool,
    /// Leave LRU linkage unpersisted (#12/#14).
    pub unpersisted_lru: bool,
    /// Leave the slab free-list head unpersisted (#13).
    pub unpersisted_slab_head: bool,
    /// Leave access-time stores unpersisted (#15).
    pub unpersisted_time: bool,
}

impl Default for MemcachedBugs {
    fn default() -> Self {
        Self {
            unpersisted_append: true,
            unpersisted_lru: true,
            unpersisted_slab_head: true,
            unpersisted_time: true,
        }
    }
}

/// A memcached-pmem cache in a PM pool.
pub struct Memcached {
    pool: PmPool,
    alloc: Arc<PmAllocator>,
    segments: Vec<PmMutex<()>>,
    lru_lock: PmMutex<()>,
    slab_lock: PmMutex<()>,
    clock: std::sync::atomic::AtomicU64,
    bugs: MemcachedBugs,
}

impl Memcached {
    /// Creates an empty cache.
    pub fn create(env: &PmEnv, pool: &PmPool, t: &PmThread, bugs: MemcachedBugs) -> Self {
        let alloc = Arc::new(PmAllocator::new(pool, OFF_BUCKETS + NBUCKETS * 8));
        let mc = Self {
            pool: pool.clone(),
            alloc,
            segments: (0..NSEGMENTS).map(|_| PmMutex::new(env, ())).collect(),
            lru_lock: PmMutex::new(env, ()),
            slab_lock: PmMutex::new(env, ()),
            clock: std::sync::atomic::AtomicU64::new(1),
            bugs,
        };
        let _f = t.frame("memcached::create");
        mc.pool.store_u64(t, mc.pool.base() + OFF_LRU_HEAD, 0);
        mc.pool.store_u64(t, mc.pool.base() + OFF_LRU_TAIL, 0);
        mc.pool.store_u64(t, mc.pool.base() + OFF_SLAB_HEAD, 0);
        for b in 0..NBUCKETS {
            mc.pool
                .store_u64(t, mc.pool.base() + OFF_BUCKETS + b * 8, 0);
        }
        mc.pool
            .persist(t, mc.pool.base(), (OFF_BUCKETS + NBUCKETS * 8) as usize);
        mc
    }

    fn bucket_addr(&self, key: u64) -> PmAddr {
        let b = fnv1a_u64(key) % NBUCKETS;
        self.pool.base() + OFF_BUCKETS + b * 8
    }

    fn segment(&self, key: u64) -> &PmMutex<()> {
        let b = fnv1a_u64(key) % NBUCKETS;
        &self.segments[(b as usize) % NSEGMENTS]
    }

    fn now(&self) -> u64 {
        self.clock
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed)
    }

    // ---- slab allocator (#13) ----

    /// Pops from the PM free list, or carves a fresh slot. The free-list
    /// head load is the `slabs.c:412` site.
    fn slabs_alloc(&self, t: &PmThread) -> PmAddr {
        let _g = self.slab_lock.lock(t);
        let _f = t.frame("memcached::slabs_alloc");
        let head = self.pool.load_u64(t, self.pool.base() + OFF_SLAB_HEAD);
        if head != 0 {
            let next = self.pool.load_u64(t, head + IT_H_NEXT);
            self.pool
                .store_u64(t, self.pool.base() + OFF_SLAB_HEAD, next);
            // The head update is persisted (the *free* side is the buggy
            // one, mirroring slabs.c:549 on the push path).
            self.pool.persist(t, self.pool.base() + OFF_SLAB_HEAD, 8);
            return head;
        }
        drop(_f);
        self.alloc
            .alloc(ITEM_SIZE)
            .expect("memcached pool exhausted")
    }

    /// Pushes a slot onto the PM free list. **Bug #13**: the head store is
    /// never persisted (`slabs.c:549`).
    fn slabs_free(&self, t: &PmThread, item: PmAddr) {
        let _g = self.slab_lock.lock(t);
        let _f = t.frame("memcached::slabs_free");
        let head = self.pool.load_u64(t, self.pool.base() + OFF_SLAB_HEAD);
        self.pool.store_u64(t, item + IT_H_NEXT, head);
        self.pool.persist(t, item + IT_H_NEXT, 8);
        self.pool
            .store_u64(t, self.pool.base() + OFF_SLAB_HEAD, item);
        if !self.bugs.unpersisted_slab_head {
            self.pool.persist(t, self.pool.base() + OFF_SLAB_HEAD, 8);
        }
        // The slot stays owned by the PM free list (not returned to the
        // arena allocator): the next `slabs_alloc` recycles the address.
    }

    /// Initializes a (possibly recycled) slot — the §7 false-positive
    /// population: on reuse these persisted stores can no longer be pruned
    /// by the Initialization Removal Heuristic.
    fn item_init(&self, t: &PmThread, item: PmAddr, key: u64, value: u64) {
        let _f = t.frame("memcached::item_init");
        self.pool.store_u64(t, item + IT_H_NEXT, 0);
        self.pool.store_u64(t, item + IT_LRU_NEXT, 0);
        self.pool.store_u64(t, item + IT_LRU_PREV, 0);
        self.pool.store_u64(t, item + IT_TIME, self.now());
        self.pool.store_u64(t, item + IT_CAS, 1);
        self.pool.store_u64(t, item + IT_KEY, key + 1);
        self.pool.store_u64(t, item + IT_NBYTES, 8);
        self.pool.store_u64(t, item + IT_DATA, value);
        self.pool.store_u64(t, item + IT_DATA + 8, 0);
        self.pool.persist(t, item, ITEM_SIZE as usize);
    }

    /// Links an item into its hash bucket and the LRU. **Bug #12**: the
    /// LRU linkage stores are left unpersisted (`items.c:423`).
    fn item_link(&self, t: &PmThread, item: PmAddr, key: u64) {
        {
            let _f = t.frame("memcached::item_link");
            let bucket = self.bucket_addr(key);
            let head = self.pool.load_u64(t, bucket);
            self.pool.store_u64(t, item + IT_H_NEXT, head);
            self.pool.persist(t, item + IT_H_NEXT, 8);
            self.pool.store_u64(t, bucket, item);
            self.pool.persist(t, bucket, 8);
        }
        let _g = self.lru_lock.lock(t);
        let _f = t.frame("memcached::item_link_lru");
        let head = self.pool.load_u64(t, self.pool.base() + OFF_LRU_HEAD);
        self.pool.store_u64(t, item + IT_LRU_NEXT, head);
        self.pool.store_u64(t, item + IT_LRU_PREV, 0);
        if head != 0 {
            self.pool.store_u64(t, head + IT_LRU_PREV, item);
        } else {
            self.pool
                .store_u64(t, self.pool.base() + OFF_LRU_TAIL, item);
        }
        self.pool
            .store_u64(t, self.pool.base() + OFF_LRU_HEAD, item);
        if !self.bugs.unpersisted_lru {
            self.pool.persist(t, item + IT_LRU_NEXT, 16);
            self.pool.persist(t, self.pool.base() + OFF_LRU_HEAD, 16);
        }
    }

    /// Unlinks an item from bucket and LRU (bucket side persisted; LRU
    /// side shares the #12 pattern).
    fn item_unlink(&self, t: &PmThread, item: PmAddr, key: u64) {
        {
            let _f = t.frame("memcached::item_unlink");
            let bucket = self.bucket_addr(key);
            let mut prev = 0;
            let mut cur = self.pool.load_u64(t, bucket);
            let mut hops = 0;
            while cur != 0 && hops < 128 {
                hops += 1;
                if cur == item {
                    let next = self.pool.load_u64(t, cur + IT_H_NEXT);
                    if prev == 0 {
                        self.pool.store_u64(t, bucket, next);
                        self.pool.persist(t, bucket, 8);
                    } else {
                        self.pool.store_u64(t, prev + IT_H_NEXT, next);
                        self.pool.persist(t, prev + IT_H_NEXT, 8);
                    }
                    break;
                }
                prev = cur;
                cur = self.pool.load_u64(t, cur + IT_H_NEXT);
            }
        }
        let _g = self.lru_lock.lock(t);
        let _f = t.frame("memcached::item_unlink_lru");
        let next = self.pool.load_u64(t, item + IT_LRU_NEXT);
        let prev = self.pool.load_u64(t, item + IT_LRU_PREV);
        if prev != 0 {
            self.pool.store_u64(t, prev + IT_LRU_NEXT, next);
        } else {
            self.pool
                .store_u64(t, self.pool.base() + OFF_LRU_HEAD, next);
        }
        if next != 0 {
            self.pool.store_u64(t, next + IT_LRU_PREV, prev);
        } else {
            self.pool
                .store_u64(t, self.pool.base() + OFF_LRU_TAIL, prev);
        }
        if !self.bugs.unpersisted_lru {
            self.pool.persist(t, self.pool.base() + OFF_LRU_HEAD, 16);
        }
    }

    /// Lock-free bucket walk; returns the item for `key` if linked. The
    /// value/metadata loads are the `memcached.c:2805`/`2824` sites.
    fn find(&self, t: &PmThread, key: u64) -> Option<PmAddr> {
        let _f = t.frame("memcached::process_get");
        let bucket = self.bucket_addr(key);
        let mut cur = self.pool.load_u64(t, bucket);
        let mut hops = 0;
        while cur != 0 && hops < 128 {
            hops += 1;
            if self.pool.load_u64(t, cur + IT_KEY) == key + 1 {
                return Some(cur);
            }
            cur = self.pool.load_u64(t, cur + IT_H_NEXT);
        }
        None
    }

    /// Lock-free get: value + response metadata, then the LRU bump.
    pub fn get(&self, t: &PmThread, key: u64) -> Option<u64> {
        let item = self.find(t, key)?;
        let value = {
            let _f = t.frame("memcached::process_get");
            self.pool.load_u64(t, item + IT_DATA)
        };
        {
            // Response metadata (`memcached.c:2824`): size, cas, linkage.
            let _f = t.frame("memcached::process_get_meta");
            self.pool.load_bytes(t, item + IT_LRU_PREV, 40);
        }
        // Staleness check (`items.c:623`) then bump (#14/#15).
        let stale = {
            let _f = t.frame("memcached::item_time_check");
            self.pool.load_u64(t, item + IT_TIME) + 4 < self.now()
        };
        if stale {
            let _g = self.lru_lock.lock(t);
            {
                let _f = t.frame("memcached::item_update_time");
                self.pool.store_u64(t, item + IT_TIME, self.now());
                if !self.bugs.unpersisted_time {
                    self.pool.persist(t, item + IT_TIME, 8);
                }
            }
            let _f = t.frame("memcached::item_bump");
            // Move to LRU head; linkage stores unpersisted (#14,
            // `items.c:1096`).
            let next = self.pool.load_u64(t, item + IT_LRU_NEXT);
            let prev = self.pool.load_u64(t, item + IT_LRU_PREV);
            if prev != 0 {
                self.pool.store_u64(t, prev + IT_LRU_NEXT, next);
                if next != 0 {
                    self.pool.store_u64(t, next + IT_LRU_PREV, prev);
                } else {
                    self.pool
                        .store_u64(t, self.pool.base() + OFF_LRU_TAIL, prev);
                }
                let head = self.pool.load_u64(t, self.pool.base() + OFF_LRU_HEAD);
                self.pool.store_u64(t, item + IT_LRU_NEXT, head);
                self.pool.store_u64(t, item + IT_LRU_PREV, 0);
                if head != 0 {
                    self.pool.store_u64(t, head + IT_LRU_PREV, item);
                }
                self.pool
                    .store_u64(t, self.pool.base() + OFF_LRU_HEAD, item);
                if !self.bugs.unpersisted_lru {
                    self.pool.persist(t, item + IT_LRU_NEXT, 16);
                }
            }
        }
        Some(value)
    }

    /// Unconditional store.
    pub fn set(&self, t: &PmThread, key: u64, value: u64) {
        let _op = t.frame("memcached::set");
        let _g = self.segment(key).lock(t);
        if let Some(item) = self.find(t, key) {
            self.pool.store_u64(t, item + IT_DATA, value);
            let cas = self.pool.load_u64(t, item + IT_CAS);
            self.pool.store_u64(t, item + IT_CAS, cas + 1);
            self.pool.persist(t, item + IT_DATA, 8);
            self.pool.persist(t, item + IT_CAS, 8);
            return;
        }
        let item = self.slabs_alloc(t);
        self.item_init(t, item, key, value);
        self.item_link(t, item, key);
    }

    /// Store-if-absent. Returns `false` if the key exists.
    pub fn add(&self, t: &PmThread, key: u64, value: u64) -> bool {
        let _op = t.frame("memcached::add");
        let _g = self.segment(key).lock(t);
        if self.find(t, key).is_some() {
            return false;
        }
        let item = self.slabs_alloc(t);
        self.item_init(t, item, key, value);
        self.item_link(t, item, key);
        true
    }

    /// Store-if-present. Returns `false` if the key is missing.
    pub fn replace(&self, t: &PmThread, key: u64, value: u64) -> bool {
        let _op = t.frame("memcached::replace");
        let _g = self.segment(key).lock(t);
        match self.find(t, key) {
            Some(item) => {
                self.pool.store_u64(t, item + IT_DATA, value);
                self.pool.persist(t, item + IT_DATA, 8);
                true
            }
            None => false,
        }
    }

    /// Append/prepend: build a **new** item from the old one — bugs
    /// #10/#11: the new item's size and data are published unpersisted.
    pub fn concat(&self, t: &PmThread, key: u64, value: u64, append: bool) -> bool {
        let _op = t.frame(if append {
            "memcached::append"
        } else {
            "memcached::prepend"
        });
        let _g = self.segment(key).lock(t);
        let Some(old) = self.find(t, key) else {
            return false;
        };
        let old_val = self.pool.load_u64(t, old + IT_DATA);
        let old_nbytes = self.pool.load_u64(t, old + IT_NBYTES);
        let item = self.slabs_alloc(t);
        self.item_init(t, item, key, old_val);
        {
            // `memcached.c:4292`: the combined size…
            let _f = t.frame("memcached::store_append_meta");
            self.pool.store_u64(t, item + IT_NBYTES, old_nbytes + 8);
            if !self.bugs.unpersisted_append {
                self.pool.persist(t, item + IT_NBYTES, 8);
            }
        }
        {
            // `memcached.c:4293`: …and the combined payload.
            let _f = t.frame("memcached::store_append_data");
            let (base, ext) = if append {
                (old_val, value)
            } else {
                (value, old_val)
            };
            self.pool.store_u64(t, item + IT_DATA, base);
            self.pool.store_u64(t, item + IT_DATA + 8, ext);
            if !self.bugs.unpersisted_append {
                self.pool.persist(t, item + IT_DATA, 16);
            }
        }
        self.item_unlink(t, old, key);
        self.item_link(t, item, key);
        self.slabs_free(t, old);
        true
    }

    /// Compare-and-store against the item's cas token.
    pub fn cas(&self, t: &PmThread, key: u64, value: u64) -> bool {
        let _op = t.frame("memcached::cas");
        let token = match self.find(t, key) {
            Some(item) => self.pool.load_u64(t, item + IT_CAS),
            None => return false,
        };
        let _g = self.segment(key).lock(t);
        match self.find(t, key) {
            Some(item) if self.pool.load_u64(t, item + IT_CAS) == token => {
                self.pool.store_u64(t, item + IT_DATA, value);
                self.pool.store_u64(t, item + IT_CAS, token + 1);
                self.pool.persist(t, item + IT_DATA, 8);
                self.pool.persist(t, item + IT_CAS, 8);
                true
            }
            _ => false,
        }
    }

    /// Numeric increment/decrement.
    pub fn delta(&self, t: &PmThread, key: u64, delta: i64) -> bool {
        let _op = t.frame("memcached::incr_decr");
        let _g = self.segment(key).lock(t);
        match self.find(t, key) {
            Some(item) => {
                let v = self.pool.load_u64(t, item + IT_DATA);
                self.pool
                    .store_u64(t, item + IT_DATA, v.wrapping_add_signed(delta));
                self.pool.persist(t, item + IT_DATA, 8);
                true
            }
            None => false,
        }
    }

    /// Removes the item and recycles its slot.
    pub fn delete(&self, t: &PmThread, key: u64) -> bool {
        let _op = t.frame("memcached::delete");
        let _g = self.segment(key).lock(t);
        match self.find(t, key) {
            Some(item) => {
                self.item_unlink(t, item, key);
                self.slabs_free(t, item);
                true
            }
            None => false,
        }
    }

    /// The LRU crawler: walks a few items from the head — the
    /// `items.c:464` load site of bug #12.
    pub fn lru_crawl(&self, t: &PmThread) {
        let _f = t.frame("memcached::lru_walk");
        let mut cur = self.pool.load_u64(t, self.pool.base() + OFF_LRU_HEAD);
        let mut hops = 0;
        while cur != 0 && hops < 8 {
            hops += 1;
            self.pool.load_u64(t, cur + IT_TIME);
            cur = self.pool.load_u64(t, cur + IT_LRU_NEXT);
        }
    }

    /// Executes one protocol operation.
    pub fn run_op(&self, t: &PmThread, op: &CacheOp) {
        match op {
            CacheOp::Set { key, value } => self.set(t, *key, *value),
            CacheOp::Get { key } => {
                self.get(t, *key);
            }
            CacheOp::Add { key, value } => {
                self.add(t, *key, *value);
            }
            CacheOp::Replace { key, value } => {
                self.replace(t, *key, *value);
            }
            CacheOp::Append { key, value } => {
                self.concat(t, *key, *value, true);
            }
            CacheOp::Prepend { key, value } => {
                self.concat(t, *key, *value, false);
            }
            CacheOp::Cas { key, value } => {
                self.cas(t, *key, *value);
            }
            CacheOp::Delete { key } => {
                self.delete(t, *key);
            }
            CacheOp::Incr { key } => {
                self.delta(t, *key, 1);
            }
            CacheOp::Decr { key } => {
                self.delta(t, *key, -1);
            }
        }
    }
}

/// The Table 1 driver for Memcached-pmem.
pub struct MemcachedApp;

impl Application for MemcachedApp {
    fn name(&self) -> &'static str {
        "Memcached-pmem"
    }

    fn sync_method(&self) -> &'static str {
        "Lock-Free"
    }

    fn known_races(&self) -> Vec<KnownRace> {
        vec![
            KnownRace::malign(
                10,
                false,
                "memcached::store_append_meta",
                "memcached::process_get_meta",
                "load unpersisted value",
            ),
            KnownRace::malign(
                11,
                false,
                "memcached::store_append_data",
                "memcached::process_get",
                "load unpersisted value",
            ),
            KnownRace::malign(
                12,
                false,
                "memcached::item_link_lru",
                "memcached::lru_walk",
                "load unpersisted value",
            ),
            KnownRace::malign(
                13,
                false,
                "memcached::slabs_free",
                "memcached::slabs_alloc",
                "load unpersisted pointer",
            ),
            KnownRace::malign(
                14,
                false,
                "memcached::item_bump",
                "memcached::process_get_meta",
                "load unpersisted metadata",
            ),
            KnownRace::malign(
                15,
                false,
                "memcached::item_update_time",
                "memcached::item_time_check",
                "load unpersisted metadata",
            ),
            KnownRace::benign(
                "memcached::set",
                "memcached::process_get",
                "locked store vs lock-free get",
            ),
            KnownRace::benign(
                "memcached::set",
                "memcached::process_get_meta",
                "cas bump vs metadata read",
            ),
            KnownRace::benign(
                "memcached::replace",
                "memcached::process_get",
                "locked replace vs get",
            ),
            KnownRace::benign(
                "memcached::incr_decr",
                "memcached::process_get",
                "locked delta vs get",
            ),
            KnownRace::benign(
                "memcached::cas",
                "memcached::process_get",
                "locked cas vs get",
            ),
            KnownRace::benign(
                "memcached::cas",
                "memcached::process_get_meta",
                "cas token bump vs metadata read",
            ),
            KnownRace::benign(
                "memcached::item_link",
                "memcached::process_get",
                "bucket relink vs walk",
            ),
            KnownRace::benign(
                "memcached::item_unlink",
                "memcached::process_get",
                "bucket unlink vs walk",
            ),
            KnownRace::benign(
                "memcached::item_link_lru",
                "memcached::process_get_meta",
                "LRU linkage vs metadata read",
            ),
            KnownRace::benign(
                "memcached::item_unlink_lru",
                "memcached::process_get_meta",
                "LRU unlink vs metadata read",
            ),
            KnownRace::benign(
                "memcached::item_unlink_lru",
                "memcached::lru_walk",
                "LRU unlink vs crawler",
            ),
            KnownRace::benign(
                "memcached::item_bump",
                "memcached::lru_walk",
                "bump vs crawler",
            ),
            KnownRace::benign(
                "memcached::item_bump",
                "memcached::process_get",
                "bump vs value read",
            ),
            KnownRace::benign(
                "memcached::item_update_time",
                "memcached::process_get_meta",
                "time store vs metadata read",
            ),
            KnownRace::benign(
                "memcached::item_update_time",
                "memcached::lru_walk",
                "time store vs crawler",
            ),
            KnownRace::benign(
                "memcached::store_append_meta",
                "memcached::lru_walk",
                "new item metadata vs crawler",
            ),
            KnownRace::benign(
                "memcached::store_append_data",
                "memcached::process_get_meta",
                "payload vs metadata read",
            ),
            KnownRace::benign(
                "memcached::item_bump",
                "memcached::item_bump",
                "unpersisted LRU window read by a later bump",
            ),
            KnownRace::benign(
                "memcached::item_bump",
                "memcached::item_link_lru",
                "unpersisted LRU window read while linking",
            ),
            KnownRace::benign(
                "memcached::item_bump",
                "memcached::item_unlink_lru",
                "unpersisted LRU window read while unlinking",
            ),
            KnownRace::benign(
                "memcached::item_link_lru",
                "memcached::item_bump",
                "unpersisted linkage read by a bump",
            ),
            KnownRace::benign(
                "memcached::item_link_lru",
                "memcached::item_link_lru",
                "unpersisted linkage read while linking",
            ),
            KnownRace::benign(
                "memcached::item_link_lru",
                "memcached::item_unlink_lru",
                "unpersisted linkage read while unlinking",
            ),
            KnownRace::benign(
                "memcached::item_unlink_lru",
                "memcached::item_bump",
                "unpersisted unlink read by a bump",
            ),
            KnownRace::benign(
                "memcached::item_unlink_lru",
                "memcached::item_link_lru",
                "unpersisted unlink read while linking",
            ),
            KnownRace::benign(
                "memcached::item_unlink_lru",
                "memcached::item_unlink_lru",
                "unpersisted unlink read while unlinking",
            ),
            KnownRace::benign(
                "memcached::slabs_free",
                "memcached::slabs_free",
                "unpersisted free-list head read by a later free",
            ),
            KnownRace::benign(
                "memcached::store_append_meta",
                "memcached::append",
                "unpersisted size read by a later concat",
            ),
            KnownRace::benign(
                "memcached::store_append_meta",
                "memcached::prepend",
                "unpersisted size read by a later concat",
            ),
            KnownRace::benign(
                "memcached::store_append_data",
                "memcached::append",
                "unpersisted payload read by a later concat",
            ),
            KnownRace::benign(
                "memcached::store_append_data",
                "memcached::prepend",
                "unpersisted payload read by a later concat",
            ),
            KnownRace::benign(
                "memcached::store_append_data",
                "memcached::incr_decr",
                "unpersisted payload read by a delta",
            ),
            KnownRace::benign(
                "memcached::item_link",
                "memcached::item_unlink",
                "bucket relink vs unlink walk",
            ),
            KnownRace::benign(
                "memcached::item_unlink",
                "memcached::item_unlink",
                "bucket unlink vs unlink walk",
            ),
        ]
    }

    fn default_workload(&self, main_ops: u64, seed: u64) -> AppWorkload {
        let (load, per_thread) = memcached_workload(1000, main_ops, 8, seed);
        AppWorkload::Cache { load, per_thread }
    }

    fn execute_with(&self, workload: &AppWorkload, opts: &ExecOptions) -> ExecResult {
        let AppWorkload::Cache { load, per_thread } = workload else {
            panic!("Memcached consumes cache workloads")
        };
        run_memcached(load, per_thread, opts, MemcachedBugs::default())
    }
}

/// Runs a memcached workload against a fresh cache.
pub fn run_memcached(
    load: &[CacheOp],
    per_thread: &[Vec<CacheOp>],
    opts: &ExecOptions,
    bugs: MemcachedBugs,
) -> ExecResult {
    let env = env_for(opts);
    let ops = load.len() + per_thread.iter().map(Vec::len).sum::<usize>();
    let pool = env.map_pool("/mnt/pmem/memcached", (1 << 20) + ops as u64 * ITEM_SIZE);
    let main = env.main_thread();
    let mc = Arc::new(Memcached::create(&env, &pool, &main, bugs));
    for op in load {
        mc.run_op(&main, op);
    }
    let schedules = Arc::new(per_thread.to_vec());
    let mc2 = Arc::clone(&mc);
    run_workers(&env, &main, per_thread.len(), move |i, t| {
        for (n, op) in schedules[i].iter().enumerate() {
            mc2.run_op(t, op);
            if n % 32 == 31 {
                mc2.lru_crawl(t);
            }
        }
    });
    let observations = env.take_observations();
    ExecResult {
        trace: env.finish(),
        observations,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::score;
    use hawkset_core::analysis::Analyzer;

    fn fresh() -> (PmEnv, Arc<Memcached>, PmThread) {
        let env = PmEnv::new();
        let pool = env.map_pool("/mnt/pmem/mc-test", 1 << 22);
        let main = env.main_thread();
        let mc = Arc::new(Memcached::create(
            &env,
            &pool,
            &main,
            MemcachedBugs::default(),
        ));
        (env, mc, main)
    }

    #[test]
    fn set_get_roundtrip() {
        let (_env, mc, t) = fresh();
        mc.set(&t, 1, 100);
        mc.set(&t, 2, 200);
        assert_eq!(mc.get(&t, 1), Some(100));
        assert_eq!(mc.get(&t, 2), Some(200));
        assert_eq!(mc.get(&t, 3), None);
        mc.set(&t, 1, 111);
        assert_eq!(mc.get(&t, 1), Some(111));
    }

    #[test]
    fn add_replace_semantics() {
        let (_env, mc, t) = fresh();
        assert!(mc.add(&t, 1, 10));
        assert!(!mc.add(&t, 1, 20), "add on existing key fails");
        assert_eq!(mc.get(&t, 1), Some(10));
        assert!(mc.replace(&t, 1, 30));
        assert_eq!(mc.get(&t, 1), Some(30));
        assert!(!mc.replace(&t, 2, 1), "replace on missing key fails");
    }

    #[test]
    fn append_builds_new_item() {
        let (_env, mc, t) = fresh();
        mc.set(&t, 5, 7);
        assert!(mc.concat(&t, 5, 9, true));
        assert_eq!(mc.get(&t, 5), Some(7), "base value survives append");
        assert!(!mc.concat(&t, 99, 1, false), "concat on missing key fails");
    }

    #[test]
    fn incr_decr_delete() {
        let (_env, mc, t) = fresh();
        mc.set(&t, 1, 10);
        assert!(mc.delta(&t, 1, 1));
        assert!(mc.delta(&t, 1, -2));
        assert_eq!(mc.get(&t, 1), Some(9));
        assert!(mc.delete(&t, 1));
        assert_eq!(mc.get(&t, 1), None);
        assert!(!mc.delete(&t, 1));
    }

    #[test]
    fn cas_respects_token() {
        let (_env, mc, t) = fresh();
        mc.set(&t, 1, 10);
        assert!(mc.cas(&t, 1, 20));
        assert_eq!(mc.get(&t, 1), Some(20));
    }

    #[test]
    fn slab_reuse_recycles_addresses() {
        let (_env, mc, t) = fresh();
        mc.set(&t, 1, 10);
        let item = mc.find(&t, 1).unwrap();
        mc.delete(&t, 1);
        mc.set(&t, 2, 20);
        let item2 = mc.find(&t, 2).unwrap();
        assert_eq!(item, item2, "freed slot must be reused (the §7 FP driver)");
    }

    #[test]
    fn detects_bugs_10_to_15() {
        let (load, per_thread) = memcached_workload(200, 3000, 8, 21);
        let res = run_memcached(
            &load,
            &per_thread,
            &ExecOptions::default(),
            MemcachedBugs::default(),
        );
        let report = Analyzer::default().run(&res.trace);
        let b = score(&report.races, &MemcachedApp.known_races());
        for id in [10, 11, 12, 13, 14, 15] {
            assert!(
                b.detected_ids.contains(&id),
                "bug #{id} missing: {:?}",
                b.detected_ids
            );
        }
    }

    /// §7: memory reuse defeats the IRH — the FP population must survive
    /// even with the heuristic on.
    #[test]
    fn irh_cannot_prune_reuse_fps() {
        let (load, per_thread) = memcached_workload(200, 2000, 8, 22);
        let res = run_memcached(
            &load,
            &per_thread,
            &ExecOptions::default(),
            MemcachedBugs::default(),
        );
        let with_irh = Analyzer::default().run(&res.trace);
        let b = score(&with_irh.races, &MemcachedApp.known_races());
        assert!(
            !b.false_positives.is_empty(),
            "slab reuse must leave false positives the IRH cannot prune"
        );
    }
}
