//! P-CLHT: a persistent cache-line hash table (RECIPE, SOSP'19).
//!
//! P-CLHT restricts each bucket to one cache line, synchronizes insertions
//! and updates with per-bucket locks, takes a global lock for rehashing,
//! and serves gets lock-free (Table 1). Its concurrency control is built on
//! CAS instructions, so — like the original evaluation (§5.5) — analysing
//! it requires wrapper functions plus a small sync configuration file; see
//! [`pclht_sync_config`].
//!
//! Reproduced bug (Table 2 **#4**, known): rehashing allocates a new table
//! and swaps the root pointer; the swap is persisted only after the resize
//! lock is released. A concurrent writer can read the unpersisted root
//! pointer (lock-free, `clht_lb_res.c:431`) and insert into the new table;
//! if the crash hits before the pointer is persisted, the insert lands in a
//! table the recovery will never find. Store site `pclht::rehash_swap_root`
//! (`clht_lb_res.c:785`), load site `pclht::table_lookup`.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use hawkset_core::addr::PmAddr;
use hawkset_core::hash::fnv1a_u64;
use hawkset_core::sync_config::SyncConfig;
use pm_runtime::{run_workers, CustomSpinLock, PmAllocator, PmEnv, PmPool, PmThread};
use pm_workloads::{Op, Workload, WorkloadSpec};

use crate::app::{
    env_for, AppWorkload, Application, ExecOptions, ExecResult, InvariantViolation, RecoveryError,
};
use crate::registry::KnownRace;

/// Entries per cache-line bucket: 3 key/value pairs + overflow pointer.
const ENTRIES: u64 = 3;
const OFF_KEYS: u64 = 0; // 3 × u64
const OFF_VALS: u64 = 24; // 3 × u64
const OFF_NEXT: u64 = 48; // overflow chain
const BUCKET_SIZE: u64 = 64;

/// Table header: number of buckets, then the bucket array.
const TBL_OFF_NBUCKETS: u64 = 0;
const TBL_HEADER: u64 = 64;

/// Pool-header offset of the root table pointer.
const ROOT_PTR_OFF: u64 = 0;

/// Keys are stored +1 so 0 means "empty slot".
fn enc(key: u64) -> u64 {
    key + 1
}

/// The sync configuration a user must provide to analyse P-CLHT — the
/// analogue of the §5.5 config file covering its CAS-wrapper functions.
pub fn pclht_sync_config() -> SyncConfig {
    SyncConfig::from_json(
        r#"{
            "primitives": [
                {"function": "clht_bucket_lock", "kind": "acquire", "mode": "Exclusive"},
                {"function": "clht_bucket_unlock", "kind": "release"},
                {"function": "clht_resize_lock", "kind": "acquire", "mode": "Exclusive"},
                {"function": "clht_resize_unlock", "kind": "release"}
            ]
        }"#,
    )
    .expect("static config parses")
}

/// Behaviour switches; bug #4 present by default.
#[derive(Clone, Copy, Debug)]
pub struct PclhtBugs {
    /// Persist the root-pointer swap only after the resize lock is
    /// released.
    pub late_root_persist: bool,
}

impl Default for PclhtBugs {
    fn default() -> Self {
        Self {
            late_root_persist: true,
        }
    }
}

/// A P-CLHT table in a PM pool.
pub struct Pclht {
    env: PmEnv,
    pool: PmPool,
    alloc: Arc<PmAllocator>,
    bucket_locks: parking_lot::Mutex<HashMap<PmAddr, Arc<CustomSpinLock>>>,
    resize_lock: CustomSpinLock,
    resizing: AtomicBool,
    items: AtomicU64,
    bugs: PclhtBugs,
}

impl Pclht {
    /// Creates a table with `nbuckets` buckets and persists it.
    pub fn create(
        env: &PmEnv,
        pool: &PmPool,
        t: &PmThread,
        nbuckets: u64,
        bugs: PclhtBugs,
    ) -> Self {
        let alloc = Arc::new(PmAllocator::new(pool, 64));
        let ht = Self {
            env: env.clone(),
            pool: pool.clone(),
            alloc,
            bucket_locks: parking_lot::Mutex::new(HashMap::new()),
            resize_lock: CustomSpinLock::new(env, "clht_resize_lock", "clht_resize_unlock"),
            resizing: AtomicBool::new(false),
            items: AtomicU64::new(0),
            bugs,
        };
        let _f = t.frame("pclht::create");
        let table = ht.new_table(t, nbuckets);
        ht.pool.store_u64(t, ht.pool.base() + ROOT_PTR_OFF, table);
        ht.pool.persist(t, ht.pool.base() + ROOT_PTR_OFF, 8);
        ht
    }

    /// Reopens a table persisted in `pool` (recovery path): state is read
    /// back through the root pointer; volatile lock tables start empty.
    pub fn open(env: &PmEnv, pool: &PmPool, bugs: PclhtBugs) -> Self {
        let alloc = Arc::new(PmAllocator::new(pool, 64));
        Self {
            env: env.clone(),
            pool: pool.clone(),
            alloc,
            bucket_locks: parking_lot::Mutex::new(HashMap::new()),
            resize_lock: CustomSpinLock::new(env, "clht_resize_lock", "clht_resize_unlock"),
            resizing: AtomicBool::new(false),
            items: AtomicU64::new(0),
            bugs,
        }
    }

    /// Minimal post-crash reopen check: the root table pointer must name a
    /// table whose header and bucket array lie inside the pool.
    pub fn recovery_probe(&self, t: &PmThread) -> Result<(), RecoveryError> {
        let _f = t.frame("pclht::recover");
        let base = self.pool.base();
        let table = self.pool.load_u64(t, base + ROOT_PTR_OFF);
        if table == 0 {
            // Crash before the table pointer was first persisted: an
            // uninitialized pool, which recovery re-initializes.
            return Ok(());
        }
        if table < base || table + TBL_HEADER > base + self.pool.len() {
            return Err(RecoveryError(format!(
                "root table pointer {table:#x} outside the pool"
            )));
        }
        let nbuckets = self.pool.load_u64(t, table + TBL_OFF_NBUCKETS);
        if nbuckets == 0 {
            return Err(RecoveryError("table header says 0 buckets".into()));
        }
        let Some(arr) = nbuckets.checked_mul(BUCKET_SIZE) else {
            return Err(RecoveryError(format!("bucket count {nbuckets} overflows")));
        };
        if table + TBL_HEADER + arr > base + self.pool.len() {
            return Err(RecoveryError(format!(
                "bucket array of {nbuckets} buckets does not fit the pool"
            )));
        }
        Ok(())
    }

    /// Structural audit of the table as persisted: every bucket chain must
    /// stay inside the pool and terminate, and no key may be durable in
    /// two slots (a torn rehash that persisted a copy *and* kept the
    /// original reachable would double-insert on recovery).
    pub fn check_invariants(&self, t: &PmThread) -> Vec<InvariantViolation> {
        let _f = t.frame("pclht::check_invariants");
        let mut out = Vec::new();
        if let Err(e) = self.recovery_probe(t) {
            out.push(InvariantViolation {
                invariant: "root".into(),
                detail: e.0,
            });
            return out;
        }
        let base = self.pool.base();
        let table = self.pool.load_u64(t, base + ROOT_PTR_OFF);
        if table == 0 {
            return out; // uninitialized pool: nothing to audit
        }
        let nbuckets = self.pool.load_u64(t, table + TBL_OFF_NBUCKETS);
        let in_pool = |b: PmAddr| {
            b >= base
                && b.checked_add(BUCKET_SIZE)
                    .is_some_and(|e| e <= base + self.pool.len())
        };
        let mut seen: HashMap<u64, PmAddr> = HashMap::new();
        for b in 0..nbuckets {
            let head = table + TBL_HEADER + b * BUCKET_SIZE;
            let mut bucket = head;
            let mut hops = 0;
            while bucket != 0 {
                hops += 1;
                if hops > 64 {
                    out.push(InvariantViolation {
                        invariant: "chain-length".into(),
                        detail: format!("bucket {b} chain exceeds 64 hops (cycle or corruption)"),
                    });
                    break;
                }
                if !in_pool(bucket) {
                    out.push(InvariantViolation {
                        invariant: "dangling-bucket".into(),
                        detail: format!("bucket {b} chain points outside the pool ({bucket:#x})"),
                    });
                    break;
                }
                for i in 0..ENTRIES {
                    let k = self.pool.load_u64(t, bucket + OFF_KEYS + i * 8);
                    if k == 0 {
                        continue;
                    }
                    if let Some(other) = seen.insert(k, bucket) {
                        if other != bucket {
                            out.push(InvariantViolation {
                                invariant: "duplicate-key".into(),
                                detail: format!(
                                    "key {} durable in buckets {other:#x} and {bucket:#x}",
                                    k - 1
                                ),
                            });
                        }
                    }
                }
                bucket = self.pool.load_u64(t, bucket + OFF_NEXT);
            }
        }
        out
    }

    fn new_table(&self, t: &PmThread, nbuckets: u64) -> PmAddr {
        let size = TBL_HEADER + nbuckets * BUCKET_SIZE;
        let addr = self.alloc.alloc(size).expect("pclht pool exhausted");
        self.pool.store_u64(t, addr + TBL_OFF_NBUCKETS, nbuckets);
        // Zero every bucket (fresh allocations may reuse freed space).
        for b in 0..nbuckets {
            let bucket = addr + TBL_HEADER + b * BUCKET_SIZE;
            for w in 0..8 {
                self.pool.store_u64(t, bucket + w * 8, 0);
            }
        }
        self.pool.persist(t, addr, size as usize);
        addr
    }

    fn lock_of(&self, bucket: PmAddr) -> Arc<CustomSpinLock> {
        let mut map = self.bucket_locks.lock();
        Arc::clone(map.entry(bucket).or_insert_with(|| {
            Arc::new(CustomSpinLock::new(
                &self.env,
                "clht_bucket_lock",
                "clht_bucket_unlock",
            ))
        }))
    }

    /// Lock-free root + bucket resolution — the load site of bug #4
    /// (`clht_lb_res.c:431`).
    fn table_lookup(&self, t: &PmThread, key: u64) -> (PmAddr, PmAddr) {
        let _f = t.frame("pclht::table_lookup");
        let table = self.pool.load_u64(t, self.pool.base() + ROOT_PTR_OFF);
        let nbuckets = self.pool.load_u64(t, table + TBL_OFF_NBUCKETS).max(1);
        let idx = fnv1a_u64(key) % nbuckets;
        (table, table + TBL_HEADER + idx * BUCKET_SIZE)
    }

    /// Lock-free get (Table 1).
    pub fn get(&self, t: &PmThread, key: u64) -> Option<u64> {
        let _f = t.frame("pclht::get");
        let (_, mut bucket) = self.table_lookup(t, key);
        let mut hops = 0;
        while bucket != 0 && hops < 64 {
            hops += 1;
            for i in 0..ENTRIES {
                let k = self.pool.load_u64(t, bucket + OFF_KEYS + i * 8);
                if k == enc(key) {
                    return Some(self.pool.load_u64(t, bucket + OFF_VALS + i * 8));
                }
            }
            bucket = self.pool.load_u64(t, bucket + OFF_NEXT);
        }
        None
    }

    /// Inserts or updates `key` under the bucket lock.
    pub fn put(&self, t: &PmThread, key: u64, value: u64) {
        let _f = t.frame("pclht::put");
        loop {
            while self.resizing.load(Ordering::Acquire) {
                std::thread::yield_now();
            }
            let (table, head) = self.table_lookup(t, key);
            let lock = self.lock_of(head);
            lock.lock(t);
            // A rehash may have started while we acquired the lock; if so,
            // retry on the new table (the real P-CLHT spins on a flag too).
            if self.resizing.load(Ordering::Acquire)
                || self.pool.load_u64(t, self.pool.base() + ROOT_PTR_OFF) != table
            {
                lock.unlock(t);
                continue;
            }
            self.bucket_insert(t, head, key, value);
            lock.unlock(t);
            return;
        }
    }

    /// In-bucket insert/update, persisted inside the critical section.
    fn bucket_insert(&self, t: &PmThread, head: PmAddr, key: u64, value: u64) {
        let mut bucket = head;
        let mut free_slot: Option<PmAddr> = None;
        let mut tail = head;
        let mut hops = 0;
        while bucket != 0 && hops < 64 {
            hops += 1;
            for i in 0..ENTRIES {
                let slot = bucket + OFF_KEYS + i * 8;
                let k = self.pool.load_u64(t, slot);
                if k == enc(key) {
                    // Update in place.
                    self.pool.store_u64(t, bucket + OFF_VALS + i * 8, value);
                    self.pool.persist(t, bucket + OFF_VALS + i * 8, 8);
                    return;
                }
                if k == 0 && free_slot.is_none() {
                    free_slot = Some(slot);
                }
            }
            tail = bucket;
            bucket = self.pool.load_u64(t, bucket + OFF_NEXT);
        }
        let slot = match free_slot {
            Some(s) => s,
            None => {
                // Chain a fresh overflow bucket (cache-line sized).
                let fresh = self.alloc.alloc(BUCKET_SIZE).expect("pclht pool exhausted");
                for w in 0..8 {
                    self.pool.store_u64(t, fresh + w * 8, 0);
                }
                self.pool.persist(t, fresh, BUCKET_SIZE as usize);
                self.pool.store_u64(t, tail + OFF_NEXT, fresh);
                self.pool.persist(t, tail + OFF_NEXT, 8);
                fresh + OFF_KEYS
            }
        };
        // Value first, then key — the key store is the linearization point
        // for lock-free readers.
        let bucket_base = slot - (slot - OFF_KEYS) % BUCKET_SIZE;
        let i = (slot - bucket_base - OFF_KEYS) / 8;
        self.pool
            .store_u64(t, bucket_base + OFF_VALS + i * 8, value);
        self.pool.store_u64(t, slot, enc(key));
        self.pool.persist(t, bucket_base, BUCKET_SIZE as usize);
        self.items.fetch_add(1, Ordering::Relaxed);
    }

    /// Deletes `key` under the bucket lock.
    pub fn delete(&self, t: &PmThread, key: u64) -> bool {
        let _f = t.frame("pclht::delete");
        loop {
            while self.resizing.load(Ordering::Acquire) {
                std::thread::yield_now();
            }
            let (table, head) = self.table_lookup(t, key);
            let lock = self.lock_of(head);
            lock.lock(t);
            if self.resizing.load(Ordering::Acquire)
                || self.pool.load_u64(t, self.pool.base() + ROOT_PTR_OFF) != table
            {
                lock.unlock(t);
                continue;
            }
            let mut bucket = head;
            let mut hops = 0;
            while bucket != 0 && hops < 64 {
                hops += 1;
                for i in 0..ENTRIES {
                    let slot = bucket + OFF_KEYS + i * 8;
                    if self.pool.load_u64(t, slot) == enc(key) {
                        self.pool.store_u64(t, slot, 0);
                        self.pool.persist(t, slot, 8);
                        self.items.fetch_sub(1, Ordering::Relaxed);
                        lock.unlock(t);
                        return true;
                    }
                }
                bucket = self.pool.load_u64(t, bucket + OFF_NEXT);
            }
            lock.unlock(t);
            return false;
        }
    }

    /// Returns `true` if the table wants to grow.
    pub fn needs_resize(&self, t: &PmThread) -> bool {
        let _f = t.frame("pclht::needs_resize");
        let table = self.pool.load_u64(t, self.pool.base() + ROOT_PTR_OFF);
        let nbuckets = self.pool.load_u64(t, table + TBL_OFF_NBUCKETS).max(1);
        self.items.load(Ordering::Relaxed) > nbuckets * 2
    }

    /// Rehashes into a table twice the size — **bug #4 lives here**.
    pub fn maybe_resize(&self, t: &PmThread) {
        if !self.needs_resize(t) {
            return;
        }
        let _f = t.frame("pclht::rehash");
        self.resize_lock.lock(t);
        if !self.needs_resize(t) {
            self.resize_lock.unlock(t);
            return;
        }
        self.resizing.store(true, Ordering::Release);
        let old = self.pool.load_u64(t, self.pool.base() + ROOT_PTR_OFF);
        let old_n = self.pool.load_u64(t, old + TBL_OFF_NBUCKETS).max(1);
        let new = self.new_table(t, old_n * 2);
        // Copy every entry, bucket by bucket, under the bucket lock so
        // in-flight writers drain first.
        {
            let _c = t.frame("pclht::rehash_copy");
            for b in 0..old_n {
                let head = old + TBL_HEADER + b * BUCKET_SIZE;
                let lock = self.lock_of(head);
                lock.lock(t);
                let mut bucket = head;
                let mut hops = 0;
                while bucket != 0 && hops < 64 {
                    hops += 1;
                    for i in 0..ENTRIES {
                        let k = self.pool.load_u64(t, bucket + OFF_KEYS + i * 8);
                        if k != 0 {
                            let v = self.pool.load_u64(t, bucket + OFF_VALS + i * 8);
                            let n = self.pool.load_u64(t, new + TBL_OFF_NBUCKETS).max(1);
                            let idx = fnv1a_u64(k - 1) % n;
                            let nh = new + TBL_HEADER + idx * BUCKET_SIZE;
                            self.bucket_insert(t, nh, k - 1, v);
                            self.items.fetch_sub(1, Ordering::Relaxed); // bucket_insert re-counts
                        }
                    }
                    bucket = self.pool.load_u64(t, bucket + OFF_NEXT);
                }
                lock.unlock(t);
            }
        }
        // Swap the root pointer. With the bug enabled the persist happens
        // only after the resize lock is gone (`clht_lb_res.c:785`).
        {
            let _s = t.frame("pclht::rehash_swap_root");
            self.pool.store_u64(t, self.pool.base() + ROOT_PTR_OFF, new);
            if !self.bugs.late_root_persist {
                self.pool.persist(t, self.pool.base() + ROOT_PTR_OFF, 8);
            }
        }
        self.resizing.store(false, Ordering::Release);
        self.resize_lock.unlock(t);
        if self.bugs.late_root_persist {
            self.pool.persist(t, self.pool.base() + ROOT_PTR_OFF, 8);
        }
    }

    /// Executes one workload operation.
    pub fn run_op(&self, t: &PmThread, op: &Op) {
        match op {
            Op::Insert { key, value } | Op::Update { key, value } => {
                self.put(t, *key, *value);
                self.maybe_resize(t);
            }
            Op::Get { key } => {
                self.get(t, *key);
            }
            Op::Delete { key } => {
                self.delete(t, *key);
            }
        }
    }
}

/// The Table 1 driver for P-CLHT.
pub struct PclhtApp;

impl Application for PclhtApp {
    fn name(&self) -> &'static str {
        "P-CLHT"
    }

    fn sync_method(&self) -> &'static str {
        "Lock"
    }

    fn known_races(&self) -> Vec<KnownRace> {
        vec![
            KnownRace::malign(
                4,
                false,
                "pclht::rehash_swap_root",
                "pclht::table_lookup",
                "load unpersisted pointer",
            ),
            KnownRace::benign(
                "pclht::put",
                "pclht::get",
                "lock-free get of persisted insert",
            ),
            KnownRace::benign(
                "pclht::put",
                "pclht::table_lookup",
                "bucket scan during put",
            ),
            KnownRace::benign("pclht::delete", "pclht::get", "lock-free get during delete"),
            KnownRace::benign(
                "pclht::rehash_copy",
                "pclht::get",
                "copied entries are persisted before the table swap",
            ),
            KnownRace::benign(
                "pclht::rehash_copy",
                "pclht::table_lookup",
                "bucket resolution during copy",
            ),
            KnownRace::benign(
                "pclht::rehash_swap_root",
                "pclht::get",
                "get resolves the root during the swap",
            ),
            KnownRace::benign(
                "pclht::create",
                "pclht::get",
                "initial table visible to readers",
            ),
            KnownRace::benign(
                "pclht::rehash_swap_root",
                "pclht::put",
                "put re-reads the root during the (unpersisted) swap",
            ),
            KnownRace::benign(
                "pclht::rehash_swap_root",
                "pclht::delete",
                "delete re-reads the root during the swap",
            ),
            KnownRace::benign(
                "pclht::rehash_swap_root",
                "pclht::needs_resize",
                "resize probe reads the root during the swap",
            ),
            KnownRace::benign(
                "pclht::put",
                "pclht::put",
                "bucket scan of a different bucket's lock holder",
            ),
            KnownRace::benign("pclht::put", "pclht::delete", "bucket scan during delete"),
            KnownRace::benign(
                "pclht::rehash_copy",
                "pclht::put",
                "copied entries read by a writer",
            ),
            KnownRace::benign(
                "pclht::rehash_copy",
                "pclht::delete",
                "copied entries read during delete",
            ),
        ]
    }

    fn default_workload(&self, main_ops: u64, seed: u64) -> AppWorkload {
        AppWorkload::Ycsb(WorkloadSpec::paper(main_ops, seed).generate())
    }

    fn execute_with(&self, workload: &AppWorkload, opts: &ExecOptions) -> ExecResult {
        let AppWorkload::Ycsb(w) = workload else {
            panic!("P-CLHT consumes YCSB workloads")
        };
        run_pclht(w, opts, PclhtBugs::default())
    }

    fn supports_recovery(&self) -> bool {
        true
    }

    fn recover(&self, pool: &PmPool, t: &PmThread) -> Result<(), RecoveryError> {
        Pclht::open(pool.env(), pool, PclhtBugs::default()).recovery_probe(t)
    }

    fn check_invariants(&self, pool: &PmPool, t: &PmThread) -> Vec<InvariantViolation> {
        Pclht::open(pool.env(), pool, PclhtBugs::default()).check_invariants(t)
    }
}

/// Runs a YCSB workload against a fresh table.
pub fn run_pclht(w: &Workload, opts: &ExecOptions, bugs: PclhtBugs) -> ExecResult {
    let env = env_for(opts);
    env.add_sync_config(pclht_sync_config());
    let pool_size = (1 << 20) + (w.main_ops() as u64 + w.load.len() as u64) * 192;
    let pool = env.map_pool("/mnt/pmem/pclht", pool_size);
    let main = env.main_thread();
    let ht = Arc::new(Pclht::create(&env, &pool, &main, 64, bugs));
    for op in &w.load {
        ht.run_op(&main, op);
    }
    let schedules = Arc::new(w.per_thread.clone());
    let ht2 = Arc::clone(&ht);
    run_workers(&env, &main, w.per_thread.len(), move |i, t| {
        for op in &schedules[i] {
            ht2.run_op(t, op);
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

    fn fresh() -> (PmEnv, Arc<Pclht>, PmThread) {
        let env = PmEnv::new();
        env.add_sync_config(pclht_sync_config());
        let pool = env.map_pool("/mnt/pmem/pclht-test", 1 << 22);
        let main = env.main_thread();
        let ht = Arc::new(Pclht::create(&env, &pool, &main, 16, PclhtBugs::default()));
        (env, ht, main)
    }

    #[test]
    fn put_get_delete_roundtrip() {
        let (_env, ht, t) = fresh();
        for k in 0..50u64 {
            ht.put(&t, k, k + 100);
        }
        for k in 0..50u64 {
            assert_eq!(ht.get(&t, k), Some(k + 100));
        }
        assert!(ht.delete(&t, 7));
        assert_eq!(ht.get(&t, 7), None);
        assert!(!ht.delete(&t, 7));
        ht.put(&t, 3, 999);
        assert_eq!(ht.get(&t, 3), Some(999));
    }

    #[test]
    fn rehash_preserves_contents() {
        let (_env, ht, t) = fresh();
        // 16 buckets × 2 = 32 items trigger a resize.
        for k in 0..200u64 {
            ht.put(&t, k, k * 2 + 1);
            ht.maybe_resize(&t);
        }
        for k in 0..200u64 {
            assert_eq!(ht.get(&t, k), Some(k * 2 + 1), "key {k} lost in rehash");
        }
    }

    #[test]
    fn overflow_chains_work() {
        let (_env, ht, t) = fresh();
        // All keys into one bucket is hard to force via hashing; instead
        // rely on volume: 16 buckets × 3 slots = 48 direct slots, so 100
        // inserts must chain (resize disabled by not calling maybe_resize).
        for k in 0..100u64 {
            ht.put(&t, k, k);
        }
        for k in 0..100u64 {
            assert_eq!(ht.get(&t, k), Some(k));
        }
    }

    #[test]
    fn concurrent_puts_preserve_disjoint_keys() {
        let (env, ht, main) = fresh();
        let ht2 = Arc::clone(&ht);
        run_workers(&env, &main, 4, move |i, t| {
            for k in 0..100u64 {
                ht2.put(t, i as u64 * 1000 + k, k + 1);
                ht2.maybe_resize(t);
            }
        });
        for i in 0..4u64 {
            for k in 0..100u64 {
                assert_eq!(
                    ht.get(&main, i * 1000 + k),
                    Some(k + 1),
                    "thread {i} key {k}"
                );
            }
        }
    }

    #[test]
    fn detects_bug4_under_growth() {
        let w = WorkloadSpec::paper(2000, 11).generate();
        let res = run_pclht(&w, &ExecOptions::default(), PclhtBugs::default());
        let report = Analyzer::default().run(&res.trace);
        let b = score(&report.races, &PclhtApp.known_races());
        assert!(
            b.detected_ids.contains(&4),
            "bug #4 must be detected: {:?}",
            b.detected_ids
        );
    }

    /// Without the sync configuration, HawkSet cannot see P-CLHT's custom
    /// locks: every locked store degrades to lockset-∅ and the report count
    /// explodes — the §5.5 motivation for the config file.
    #[test]
    fn missing_sync_config_inflates_reports() {
        let w = WorkloadSpec::paper(500, 3).generate();
        let with_cfg = {
            let res = run_pclht(&w, &ExecOptions::default(), PclhtBugs::default());
            Analyzer::default().run(&res.trace).races.len()
        };
        let without_cfg = {
            let env = PmEnv::new(); // built-in pthread config only
            let pool = env.map_pool("/mnt/pmem/pclht-nocfg", 1 << 22);
            let main = env.main_thread();
            let ht = Arc::new(Pclht::create(&env, &pool, &main, 64, PclhtBugs::default()));
            for op in &w.load {
                ht.run_op(&main, op);
            }
            let schedules = Arc::new(w.per_thread.clone());
            let ht2 = Arc::clone(&ht);
            run_workers(&env, &main, w.per_thread.len(), move |i, t| {
                for op in &schedules[i] {
                    ht2.run_op(t, op);
                }
            });
            Analyzer::default().run(&env.finish()).races.len()
        };
        assert!(
            without_cfg >= with_cfg,
            "dropping the sync config must not reduce reports ({without_cfg} vs {with_cfg})"
        );
    }
}
