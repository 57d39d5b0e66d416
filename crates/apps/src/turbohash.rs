//! TurboHash: a cell-based persistent hash table (SYSTOR'23).
//!
//! TurboHash packs 16-byte entry cells into multi-line buckets, performs
//! efficient out-of-place updates, and synchronizes writers with its own
//! bucket spinlocks while readers probe lock-free. Like the original
//! evaluation (§5.5), the custom primitives need a small sync configuration
//! — see [`turbohash_sync_config`].
//!
//! Reproduced bug (Table 2 **#3**, new): an insert writes its 16-byte cell
//! and then flushes *from the cell's starting line* — when the cell sits at
//! the end of the bucket such that it straddles a cache-line boundary, the
//! cell's tail on the next line is never written back
//! (`turbo_hash_pmem_pmdk.h:2238` store, `:2546` load). The bug manifests
//! only once buckets fill up to the straddling cell, which is why the paper
//! saw it only under the 100k-operation workload: the straddling cell is
//! the *last* one filled.

use std::collections::HashMap;
use std::sync::Arc;

use hawkset_core::addr::PmAddr;
use hawkset_core::hash::fnv1a_u64;
use hawkset_core::sync_config::SyncConfig;
use pm_runtime::{run_workers, CustomSpinLock, PmEnv, PmPool, PmThread};
use pm_workloads::{Op, Workload, WorkloadSpec};

use crate::app::{
    env_for, AppWorkload, Application, ExecOptions, ExecResult, InvariantViolation, RecoveryError,
};
use crate::registry::KnownRace;

/// Bucket geometry: two cache lines.
///
/// ```text
/// +0   meta bitmap (u64)
/// +8   cell 0   +24 cell 1   +40 cell 2      (line 0)
/// +56  cell 3  ← straddles the line boundary at +64
/// +72  cell 4   +88 cell 5   +104 cell 6     (line 1)
/// ```
const BUCKET_SIZE: u64 = 128;
const CELLS: u64 = 7;
const OFF_META: u64 = 0;
/// Fill order: the straddling cell (index 3 by address) is used last.
const FILL_ORDER: [u64; CELLS as usize] = [0, 1, 2, 4, 5, 6, 3];

fn cell_off(i: u64) -> u64 {
    8 + i * 16
}

/// The §5.5-style configuration for TurboHash's custom spinlocks.
pub fn turbohash_sync_config() -> SyncConfig {
    SyncConfig::from_json(
        r#"{
            "primitives": [
                {"function": "turbo_bucket_lock", "kind": "acquire", "mode": "Exclusive"},
                {"function": "turbo_bucket_unlock", "kind": "release"}
            ]
        }"#,
    )
    .expect("static config parses")
}

/// Behaviour switches; bug #3 present by default.
#[derive(Clone, Copy, Debug)]
pub struct TurboBugs {
    /// Flush only the cell's starting line (the historical bug). The fixed
    /// version flushes every line the cell touches.
    pub flush_first_line_only: bool,
}

impl Default for TurboBugs {
    fn default() -> Self {
        Self {
            flush_first_line_only: true,
        }
    }
}

/// A TurboHash table in a PM pool: a fixed directory of multi-line buckets
/// with linear probing across buckets.
pub struct TurboHash {
    env: PmEnv,
    pool: PmPool,
    nbuckets: u64,
    locks: parking_lot::Mutex<HashMap<u64, Arc<CustomSpinLock>>>,
    bugs: TurboBugs,
}

impl TurboHash {
    /// Creates a zeroed table with `nbuckets` buckets.
    pub fn create(
        env: &PmEnv,
        pool: &PmPool,
        t: &PmThread,
        nbuckets: u64,
        bugs: TurboBugs,
    ) -> Self {
        assert!(
            pool.len() >= nbuckets * BUCKET_SIZE,
            "pool too small for directory"
        );
        let ht = Self {
            env: env.clone(),
            pool: pool.clone(),
            nbuckets,
            locks: parking_lot::Mutex::new(HashMap::new()),
            bugs,
        };
        let _f = t.frame("turbohash::create");
        // Directory starts zeroed (fresh pool); persist the meta words so
        // recovery sees a valid empty table.
        for b in 0..nbuckets {
            ht.pool.flush(t, ht.bucket_addr(b) + OFF_META);
        }
        t.fence();
        ht
    }

    /// Reopens the table persisted in `pool` (recovery path). TurboHash
    /// keeps no superblock: the directory *is* the pool, so the bucket
    /// count is derived from the pool size.
    pub fn open(env: &PmEnv, pool: &PmPool, bugs: TurboBugs) -> Self {
        Self {
            env: env.clone(),
            pool: pool.clone(),
            nbuckets: pool.len() / BUCKET_SIZE,
            locks: parking_lot::Mutex::new(HashMap::new()),
            bugs,
        }
    }

    /// Minimal post-crash reopen check: the pool must hold at least one
    /// whole bucket.
    pub fn recovery_probe(&self, t: &PmThread) -> Result<(), RecoveryError> {
        let _f = t.frame("turbohash::recover");
        if self.nbuckets == 0 {
            return Err(RecoveryError(format!(
                "pool of {} bytes holds no complete bucket",
                self.pool.len()
            )));
        }
        Ok(())
    }

    /// Structural audit of the directory as persisted: reserved meta bits
    /// must be zero, every meta-visible cell must hold a written key, and
    /// no key may be meta-visible in two cells (the single-`u64` meta flip
    /// is what makes out-of-place updates atomic; two visible copies means
    /// that atomicity was violated).
    pub fn check_invariants(&self, t: &PmThread) -> Vec<InvariantViolation> {
        let _f = t.frame("turbohash::check_invariants");
        let mut out = Vec::new();
        let mut seen: HashMap<u64, PmAddr> = HashMap::new();
        let reserved: u64 = !((1 << CELLS) - 1) & !(1 << 63);
        for b in 0..self.nbuckets {
            let bucket = self.bucket_addr(b);
            let meta = self.pool.load_u64(t, bucket + OFF_META);
            if meta & reserved != 0 {
                out.push(InvariantViolation {
                    invariant: "meta-reserved".into(),
                    detail: format!("bucket {b} meta {meta:#x} has reserved bits set"),
                });
                continue;
            }
            for i in 0..CELLS {
                if meta & (1 << i) == 0 {
                    continue;
                }
                let cell = bucket + cell_off(i);
                let k = self.pool.load_u64(t, cell);
                if k == 0 {
                    out.push(InvariantViolation {
                        invariant: "empty-occupied-cell".into(),
                        detail: format!("bucket {b} cell {i} is meta-visible but holds no key"),
                    });
                    continue;
                }
                if let Some(other) = seen.insert(k, cell) {
                    out.push(InvariantViolation {
                        invariant: "duplicate-key".into(),
                        detail: format!("key {} durable in cells {other:#x} and {cell:#x}", k - 1),
                    });
                }
            }
        }
        out
    }

    fn bucket_addr(&self, idx: u64) -> PmAddr {
        self.pool.base() + idx * BUCKET_SIZE
    }

    fn lock_of(&self, idx: u64) -> Arc<CustomSpinLock> {
        let mut map = self.locks.lock();
        Arc::clone(map.entry(idx).or_insert_with(|| {
            Arc::new(CustomSpinLock::new(
                &self.env,
                "turbo_bucket_lock",
                "turbo_bucket_unlock",
            ))
        }))
    }

    fn home_bucket(&self, key: u64) -> u64 {
        fnv1a_u64(key) % self.nbuckets
    }

    /// Lock-free probe — the load site of bug #3
    /// (`turbo_hash_pmem_pmdk.h:2546`).
    pub fn get(&self, t: &PmThread, key: u64) -> Option<u64> {
        let _f = t.frame("turbohash::probe");
        let home = self.home_bucket(key);
        for d in 0..self.nbuckets.min(8) {
            let b = (home + d) % self.nbuckets;
            let bucket = self.bucket_addr(b);
            let meta = self.pool.load_u64(t, bucket + OFF_META);
            for i in 0..CELLS {
                if meta & (1 << i) != 0 {
                    let k = self.pool.load_u64(t, bucket + cell_off(i));
                    if k == key + 1 {
                        return Some(self.pool.load_u64(t, bucket + cell_off(i) + 8));
                    }
                }
            }
            if meta & (1 << 63) == 0 {
                // No overflow marker: the probe chain ends here.
                return None;
            }
        }
        None
    }

    /// Inserts or updates out-of-place: write a fresh cell, then flip the
    /// meta bitmap. **Bug #3 lives in the cell persist.**
    pub fn put(&self, t: &PmThread, key: u64, value: u64) -> bool {
        let _f = t.frame("turbohash::put");
        let home = self.home_bucket(key);
        for d in 0..self.nbuckets.min(8) {
            let b = (home + d) % self.nbuckets;
            let bucket = self.bucket_addr(b);
            let lock = self.lock_of(b);
            lock.lock(t);
            let meta = self.pool.load_u64(t, bucket + OFF_META);
            // Existing cell for the key? Out-of-place update if possible.
            let mut existing = None;
            for i in 0..CELLS {
                if meta & (1 << i) != 0 && self.pool.load_u64(t, bucket + cell_off(i)) == key + 1 {
                    existing = Some(i);
                    break;
                }
            }
            let free = FILL_ORDER.iter().copied().find(|&i| meta & (1 << i) == 0);
            match (existing, free) {
                (Some(old), Some(fresh)) => {
                    self.write_cell(t, bucket, fresh, key, value);
                    // Atomic meta flip: new cell in, old cell out.
                    let new_meta = (meta | (1 << fresh)) & !(1 << old);
                    self.write_meta(t, bucket, new_meta);
                    lock.unlock(t);
                    return true;
                }
                (Some(old), None) => {
                    // No free cell: in-place update (degraded path).
                    let _w = t.frame("turbohash::insert_entry");
                    self.pool.store_u64(t, bucket + cell_off(old) + 8, value);
                    self.flush_cell(t, bucket + cell_off(old));
                    t.fence();
                    lock.unlock(t);
                    return true;
                }
                (None, Some(fresh)) => {
                    self.write_cell(t, bucket, fresh, key, value);
                    self.write_meta(t, bucket, meta | (1 << fresh));
                    lock.unlock(t);
                    return true;
                }
                (None, None) => {
                    // Bucket full: mark the overflow bit and probe onward.
                    if meta & (1 << 63) == 0 {
                        self.write_meta(t, bucket, meta | (1 << 63));
                    }
                    lock.unlock(t);
                }
            }
        }
        false
    }

    /// Stores a 16-byte cell and flushes it — with the bug, only from its
    /// starting line (`turbo_hash_pmem_pmdk.h:2238`).
    fn write_cell(&self, t: &PmThread, bucket: PmAddr, i: u64, key: u64, value: u64) {
        let _f = t.frame("turbohash::insert_entry");
        let cell = bucket + cell_off(i);
        self.pool.store_u64(t, cell, key + 1);
        self.pool.store_u64(t, cell + 8, value);
        self.flush_cell(t, cell);
        t.fence();
    }

    fn flush_cell(&self, t: &PmThread, cell: PmAddr) {
        if self.bugs.flush_first_line_only {
            self.pool.flush(t, cell);
        } else {
            self.pool.flush_range(t, cell, 16);
        }
    }

    /// Persists the meta bitmap (always fully, it sits on line 0).
    fn write_meta(&self, t: &PmThread, bucket: PmAddr, meta: u64) {
        let _f = t.frame("turbohash::insert_meta");
        self.pool.store_u64(t, bucket + OFF_META, meta);
        self.pool.flush(t, bucket + OFF_META);
        t.fence();
    }

    /// Clears the key's cell bit.
    pub fn delete(&self, t: &PmThread, key: u64) -> bool {
        let _f = t.frame("turbohash::delete");
        let home = self.home_bucket(key);
        for d in 0..self.nbuckets.min(8) {
            let b = (home + d) % self.nbuckets;
            let bucket = self.bucket_addr(b);
            let lock = self.lock_of(b);
            lock.lock(t);
            let meta = self.pool.load_u64(t, bucket + OFF_META);
            for i in 0..CELLS {
                if meta & (1 << i) != 0 && self.pool.load_u64(t, bucket + cell_off(i)) == key + 1 {
                    self.write_meta(t, bucket, meta & !(1 << i));
                    lock.unlock(t);
                    return true;
                }
            }
            let overflow = meta & (1 << 63) != 0;
            lock.unlock(t);
            if !overflow {
                return false;
            }
        }
        false
    }

    /// Executes one workload operation.
    pub fn run_op(&self, t: &PmThread, op: &Op) {
        match op {
            // TurboHash treats inserts and updates identically (§5).
            Op::Insert { key, value } | Op::Update { key, value } => {
                self.put(t, *key, *value);
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

/// The Table 1 driver for TurboHash.
pub struct TurboHashApp;

impl Application for TurboHashApp {
    fn name(&self) -> &'static str {
        "TurboHash"
    }

    fn sync_method(&self) -> &'static str {
        "Lock/Lock-Free"
    }

    fn known_races(&self) -> Vec<KnownRace> {
        vec![
            KnownRace::malign(
                3,
                true,
                "turbohash::insert_entry",
                "turbohash::probe",
                "load unpersisted value",
            ),
            KnownRace::benign(
                "turbohash::insert_meta",
                "turbohash::probe",
                "meta flip is persisted before the fence",
            ),
            KnownRace::benign(
                "turbohash::delete",
                "turbohash::probe",
                "meta clear vs probe",
            ),
            KnownRace::benign(
                "turbohash::create",
                "turbohash::probe",
                "directory initialization",
            ),
        ]
    }

    fn default_workload(&self, main_ops: u64, seed: u64) -> AppWorkload {
        AppWorkload::Ycsb(WorkloadSpec::paper(main_ops, seed).generate())
    }

    fn execute_with(&self, workload: &AppWorkload, opts: &ExecOptions) -> ExecResult {
        let AppWorkload::Ycsb(w) = workload else {
            panic!("TurboHash consumes YCSB workloads")
        };
        run_turbohash(w, opts, TurboBugs::default(), 4096)
    }

    fn supports_recovery(&self) -> bool {
        true
    }

    fn recover(&self, pool: &PmPool, t: &PmThread) -> Result<(), RecoveryError> {
        TurboHash::open(pool.env(), pool, TurboBugs::default()).recovery_probe(t)
    }

    fn check_invariants(&self, pool: &PmPool, t: &PmThread) -> Vec<InvariantViolation> {
        TurboHash::open(pool.env(), pool, TurboBugs::default()).check_invariants(t)
    }
}

/// Runs a YCSB workload against a fresh table.
pub fn run_turbohash(
    w: &Workload,
    opts: &ExecOptions,
    bugs: TurboBugs,
    nbuckets: u64,
) -> ExecResult {
    let env = env_for(opts);
    env.add_sync_config(turbohash_sync_config());
    let pool = env.map_pool("/mnt/pmem/turbohash", nbuckets * BUCKET_SIZE);
    let main = env.main_thread();
    let ht = Arc::new(TurboHash::create(&env, &pool, &main, nbuckets, bugs));
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

    fn fresh(nbuckets: u64) -> (PmEnv, Arc<TurboHash>, PmThread) {
        let env = PmEnv::new();
        env.add_sync_config(turbohash_sync_config());
        let pool = env.map_pool("/mnt/pmem/turbo-test", nbuckets * BUCKET_SIZE);
        let main = env.main_thread();
        let ht = Arc::new(TurboHash::create(
            &env,
            &pool,
            &main,
            nbuckets,
            TurboBugs::default(),
        ));
        (env, ht, main)
    }

    #[test]
    fn put_get_delete_roundtrip() {
        let (_env, ht, t) = fresh(64);
        for k in 0..100u64 {
            assert!(ht.put(&t, k, k + 7));
        }
        for k in 0..100u64 {
            assert_eq!(ht.get(&t, k), Some(k + 7), "key {k}");
        }
        assert!(ht.delete(&t, 5));
        assert_eq!(ht.get(&t, 5), None);
        assert!(!ht.delete(&t, 5));
    }

    #[test]
    fn out_of_place_update_changes_value() {
        let (_env, ht, t) = fresh(64);
        ht.put(&t, 1, 10);
        ht.put(&t, 1, 20);
        assert_eq!(ht.get(&t, 1), Some(20));
    }

    #[test]
    fn straddling_cell_is_filled_last() {
        // Cell 3 (offset 56) straddles lines and must be the 7th fill.
        assert_eq!(FILL_ORDER[FILL_ORDER.len() - 1], 3);
        let r = hawkset_core::addr::AddrRange::new(cell_off(3), 16);
        assert!(r.crosses_line());
        for i in [0u64, 1, 2, 4, 5, 6] {
            assert!(!hawkset_core::addr::AddrRange::new(cell_off(i), 16).crosses_line());
        }
    }

    #[test]
    fn bug3_needs_a_full_bucket() {
        // Direct white-box check of the §5.1 claim: with few keys per
        // bucket the straddling cell is never used and the malign pair is
        // absent; force-filling one bucket exposes it.
        let env = PmEnv::new();
        env.add_sync_config(turbohash_sync_config());
        let pool = env.map_pool("/mnt/pmem/turbo-fill", 4 * BUCKET_SIZE);
        let main = env.main_thread();
        let ht = Arc::new(TurboHash::create(
            &env,
            &pool,
            &main,
            4,
            TurboBugs::default(),
        ));
        // Load phase: enough distinct keys to fill every cell of every
        // bucket including the straddler (64 keys over 4×7 cells).
        for k in 0..64u64 {
            ht.put(&main, k, k);
        }
        let ht2 = Arc::clone(&ht);
        run_workers(&env, &main, 2, move |i, t| {
            for k in 0..64u64 {
                if i == 0 {
                    ht2.put(t, k, k + 100);
                } else {
                    ht2.get(t, k);
                }
            }
        });
        let report = Analyzer::default().run(&env.finish());
        let b = score(&report.races, &TurboHashApp.known_races());
        assert!(
            b.detected_ids.contains(&3),
            "bug #3 must appear once buckets fill"
        );
        // The report for the malign pair must carry the never-persisted
        // signature: the straddling tail has no flush at all.
        let malign = report
            .races
            .iter()
            .find(|r| {
                r.store_site
                    .as_ref()
                    .is_some_and(|f| f.function == "turbohash::insert_entry")
                    && r.load_site
                        .as_ref()
                        .is_some_and(|f| f.function == "turbohash::probe")
            })
            .expect("malign pair reported");
        assert!(malign.store_never_persisted);
    }

    #[test]
    fn fixed_flush_removes_the_unpersisted_tail() {
        let env = PmEnv::new();
        env.add_sync_config(turbohash_sync_config());
        let pool = env.map_pool("/mnt/pmem/turbo-fixed", 4 * BUCKET_SIZE);
        let main = env.main_thread();
        let ht = Arc::new(TurboHash::create(
            &env,
            &pool,
            &main,
            4,
            TurboBugs {
                flush_first_line_only: false,
            },
        ));
        for k in 0..64u64 {
            ht.put(&main, k, k);
        }
        let ht2 = Arc::clone(&ht);
        run_workers(&env, &main, 2, move |i, t| {
            for k in 0..64u64 {
                if i == 0 {
                    ht2.put(t, k, k + 100);
                } else {
                    ht2.get(t, k);
                }
            }
        });
        let report = Analyzer::default().run(&env.finish());
        for race in &report.races {
            let is_entry_pair = race
                .store_site
                .as_ref()
                .is_some_and(|f| f.function == "turbohash::insert_entry");
            if is_entry_pair {
                assert!(
                    !race.store_never_persisted,
                    "fixed flush must persist every cell byte: {}",
                    race.summary()
                );
            }
        }
    }

    #[test]
    fn concurrent_puts_disjoint_keys_survive() {
        let (env, ht, main) = fresh(256);
        let ht2 = Arc::clone(&ht);
        run_workers(&env, &main, 4, move |i, t| {
            for k in 0..80u64 {
                ht2.put(t, i as u64 * 500 + k, k + 1);
            }
        });
        for i in 0..4u64 {
            for k in 0..80u64 {
                assert_eq!(
                    ht.get(&main, i * 500 + k),
                    Some(k + 1),
                    "thread {i} key {k}"
                );
            }
        }
    }
}
