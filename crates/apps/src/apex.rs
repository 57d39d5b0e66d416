//! APEX: a high-performance learned index on PM (VLDB'21).
//!
//! APEX extends Microsoft's ALEX to persistent memory: data nodes are
//! model-positioned *gapped arrays*; inserts, erases and updates take the
//! node's mutex and persist correctly inside the critical section, while
//! searches run lock-free with exponential probing around the predicted
//! slot. Like P-CLHT, its concurrency control is built on CAS wrappers, so
//! the analysis needs a small sync configuration ([`apex_sync_config`],
//! §5.5) — here exposed via pthread-style mutexes plus the wrapper file.
//!
//! Reproduced bugs (Table 2, both new): "although the latter operations
//! are protected via mutex, and correctly persisted, the lock-free search
//! can still observe an unpersisted value" —
//!
//! * **#19** — the *value* store (`apex_nodes.h:3479,3798`) races the
//!   search's payload read (`:2915,2933`). Store site
//!   `apex::insert_value`, load site `apex::search`.
//! * **#20** — the *key* store (`apex_nodes.h:3480,3606`) races the
//!   search's key probe (`:962`). Store site `apex::insert_key`, load site
//!   `apex::search_key`.

use std::sync::Arc;

use hawkset_core::addr::PmAddr;
use hawkset_core::hash::fnv1a_u64;
use hawkset_core::sync_config::SyncConfig;
use pm_runtime::{run_workers, PmAllocator, PmEnv, PmPool, PmThread};
use pm_workloads::{Op, Workload, WorkloadSpec};

use crate::app::{env_for, AppWorkload, Application, ExecOptions, ExecResult};
use crate::model::LinearModel;
use crate::registry::KnownRace;
use crate::LockTable;

/// Initial data-node capacity (slots); doubles on expansion.
const INITIAL_CAP: u64 = 16;

/// Data node layout: capacity, count, then keys[cap] and values[cap].
/// Key 0 means "gap".
const DN_CAP: u64 = 0;
const DN_COUNT: u64 = 8;
const DN_BODY: u64 = 16;

const DIR_OFF: u64 = 64;

fn node_size(cap: u64) -> u64 {
    DN_BODY + cap * 16
}

/// The §5.5-style configuration for APEX's CAS wrapper functions.
pub fn apex_sync_config() -> SyncConfig {
    SyncConfig::from_json(
        r#"{
            "primitives": [
                {"function": "apex_node_lock", "kind": "acquire", "mode": "Exclusive"},
                {"function": "apex_node_unlock", "kind": "release"}
            ]
        }"#,
    )
    .expect("static config parses")
}

/// Behaviour switches. APEX's stores are correctly persisted — the races
/// come from the lock-free search — so there is nothing to "disable"; the
/// switch widens the search probe for ablation experiments instead.
#[derive(Clone, Copy, Debug)]
pub struct ApexConfig {
    /// Probe distance of the exponential search.
    pub probe_limit: u64,
}

impl Default for ApexConfig {
    fn default() -> Self {
        Self { probe_limit: 64 }
    }
}

/// An APEX index in a PM pool.
pub struct Apex {
    pool: PmPool,
    alloc: Arc<PmAllocator>,
    locks: LockTable,
    model: LinearModel,
    partitions: u64,
    cfg: ApexConfig,
}

impl Apex {
    /// Creates the index with a trained root model and one data node per
    /// partition.
    pub fn create(
        env: &PmEnv,
        pool: &PmPool,
        t: &PmThread,
        train_keys: &[u64],
        partitions: u64,
        cfg: ApexConfig,
    ) -> Self {
        let alloc = Arc::new(PmAllocator::new(pool, DIR_OFF + partitions * 8));
        let apex = Self {
            pool: pool.clone(),
            alloc,
            locks: LockTable::new(env),
            model: LinearModel::train(train_keys, partitions),
            partitions,
            cfg,
        };
        let _f = t.frame("apex::create");
        for p in 0..partitions {
            let node = apex.new_node(t, INITIAL_CAP);
            apex.pool.store_u64(t, apex.dir_slot(p), node);
        }
        apex.pool
            .persist(t, apex.pool.base(), (DIR_OFF + partitions * 8) as usize);
        apex
    }

    fn dir_slot(&self, p: u64) -> PmAddr {
        self.pool.base() + DIR_OFF + p * 8
    }

    fn new_node(&self, t: &PmThread, cap: u64) -> PmAddr {
        let addr = self
            .alloc
            .alloc(node_size(cap))
            .expect("apex pool exhausted");
        for w in (0..node_size(cap)).step_by(8) {
            self.pool.store_u64(t, addr + w, 0);
        }
        self.pool.store_u64(t, addr + DN_CAP, cap);
        self.pool.persist(t, addr, node_size(cap) as usize);
        addr
    }

    /// Lock-free directory resolution.
    fn traverse(&self, t: &PmThread, key: u64) -> (u64, PmAddr) {
        let _f = t.frame("apex::traverse");
        let p = self.model.predict(key, self.partitions);
        (p, self.pool.load_u64(t, self.dir_slot(p)))
    }

    /// In-node slot prediction: scale the key into the gapped array.
    fn predict_slot(&self, key: u64, cap: u64) -> u64 {
        // Reuse the root model's local density: fold the key into the node.
        (fnv1a_u64(key) % cap.max(1)).min(cap - 1)
    }

    /// Lock-free search — the load sites of bugs #19/#20.
    pub fn get(&self, t: &PmThread, key: u64) -> Option<u64> {
        let (_, node) = self.traverse(t, key);
        let cap = {
            let _f = t.frame("apex::search_key");
            self.pool.load_u64(t, node + DN_CAP).max(1)
        };
        let start = self.predict_slot(key, cap);
        for d in 0..self.cfg.probe_limit.min(cap) {
            let slot = (start + d) % cap;
            let k = {
                // `apex_nodes.h:962`: exponential-search key probe.
                let _f = t.frame("apex::search_key");
                self.pool.load_u64(t, node + DN_BODY + slot * 16)
            };
            if k == key + 1 {
                // `apex_nodes.h:2915,2933`: payload read.
                let _f = t.frame("apex::search");
                return Some(self.pool.load_u64(t, node + DN_BODY + slot * 16 + 8));
            }
            if k == 0 {
                return None;
            }
        }
        None
    }

    /// Inserts or updates under the node lock, persisting in the critical
    /// section — and still racing the lock-free search (#19/#20).
    pub fn put(&self, t: &PmThread, key: u64, value: u64) {
        let _f = t.frame("apex::put");
        loop {
            let (p, _) = self.traverse(t, key);
            let lock = self.locks.lock_of(self.dir_slot(p));
            let guard = lock.lock(t);
            let node = self.pool.load_u64(t, self.dir_slot(p));
            let cap = self.pool.load_u64(t, node + DN_CAP).max(1);
            let count = self.pool.load_u64(t, node + DN_COUNT);
            let start = self.predict_slot(key, cap);
            let mut placed = false;
            for d in 0..cap {
                let slot = (start + d) % cap;
                let kaddr = node + DN_BODY + slot * 16;
                let k = self.pool.load_u64(t, kaddr);
                if k == key + 1 {
                    // Update in place (`apex_nodes.h:3798` shares the value
                    // store site).
                    let _v = t.frame("apex::insert_value");
                    self.pool.store_u64(t, kaddr + 8, value);
                    self.pool.persist(t, kaddr + 8, 8);
                    placed = true;
                    break;
                }
                if k == 0 {
                    if count + 1 > cap * 3 / 4 {
                        break; // keep density for probing; expand below
                    }
                    {
                        // `apex_nodes.h:3479`: value first…
                        let _v = t.frame("apex::insert_value");
                        self.pool.store_u64(t, kaddr + 8, value);
                        self.pool.persist(t, kaddr + 8, 8);
                    }
                    {
                        // …`apex_nodes.h:3480`: then the key publishes the
                        // slot; persisted before the unlock (the race is
                        // the reader's lock-freedom, not a missing flush).
                        let _k = t.frame("apex::insert_key");
                        self.pool.store_u64(t, kaddr, key + 1);
                        self.pool.persist(t, kaddr, 8);
                    }
                    self.pool.store_u64(t, node + DN_COUNT, count + 1);
                    self.pool.persist(t, node + DN_COUNT, 8);
                    placed = true;
                    break;
                }
            }
            if placed {
                return;
            }
            // Node too dense: expand (a structural modification operation),
            // fully persisted before the directory swap.
            self.expand(t, p, node, cap);
            drop(guard);
        }
    }

    /// Doubles a node's gapped array and swaps the directory pointer —
    /// fully persisted (APEX's SMOs are crash-correct).
    fn expand(&self, t: &PmThread, p: u64, old: PmAddr, cap: u64) {
        let _f = t.frame("apex::expand");
        let new_cap = cap * 2;
        let new = self.new_node(t, new_cap);
        let mut moved = 0;
        for slot in 0..cap {
            let k = self.pool.load_u64(t, old + DN_BODY + slot * 16);
            // Live entries only: gaps (0) and tombstones (MAX) are dropped.
            if k != 0 && k != u64::MAX {
                let v = self.pool.load_u64(t, old + DN_BODY + slot * 16 + 8);
                let start = self.predict_slot(k - 1, new_cap);
                for d in 0..new_cap {
                    let s = (start + d) % new_cap;
                    if self.pool.load_u64(t, new + DN_BODY + s * 16) == 0 {
                        self.pool.store_u64(t, new + DN_BODY + s * 16, k);
                        self.pool.store_u64(t, new + DN_BODY + s * 16 + 8, v);
                        moved += 1;
                        break;
                    }
                }
            }
        }
        self.pool.store_u64(t, new + DN_COUNT, moved);
        self.pool.persist(t, new, node_size(new_cap) as usize);
        self.pool.store_u64(t, self.dir_slot(p), new);
        self.pool.persist(t, self.dir_slot(p), 8);
    }

    /// Erases `key` under the node lock (gap restored, persisted in CS).
    pub fn erase(&self, t: &PmThread, key: u64) -> bool {
        let _f = t.frame("apex::erase");
        let (p, _) = self.traverse(t, key);
        let lock = self.locks.lock_of(self.dir_slot(p));
        let _g = lock.lock(t);
        let node = self.pool.load_u64(t, self.dir_slot(p));
        let cap = self.pool.load_u64(t, node + DN_CAP).max(1);
        let start = self.predict_slot(key, cap);
        for d in 0..cap {
            let slot = (start + d) % cap;
            let kaddr = node + DN_BODY + slot * 16;
            let k = self.pool.load_u64(t, kaddr);
            if k == key + 1 {
                self.pool.store_u64(t, kaddr, u64::MAX); // tombstone, not a gap:
                                                         // probes must continue past erased slots.
                self.pool.persist(t, kaddr, 8);
                let count = self.pool.load_u64(t, node + DN_COUNT);
                self.pool
                    .store_u64(t, node + DN_COUNT, count.saturating_sub(1));
                self.pool.persist(t, node + DN_COUNT, 8);
                return true;
            }
            if k == 0 {
                return false;
            }
        }
        false
    }

    /// Executes one workload operation.
    pub fn run_op(&self, t: &PmThread, op: &Op) {
        match op {
            Op::Insert { key, value } | Op::Update { key, value } => self.put(t, *key, *value),
            Op::Get { key } => {
                self.get(t, *key);
            }
            Op::Delete { key } => {
                self.erase(t, *key);
            }
        }
    }
}

/// The Table 1 driver for APEX.
pub struct ApexApp;

impl Application for ApexApp {
    fn name(&self) -> &'static str {
        "APEX"
    }

    fn sync_method(&self) -> &'static str {
        "Lock"
    }

    fn known_races(&self) -> Vec<KnownRace> {
        vec![
            KnownRace::malign(
                19,
                true,
                "apex::insert_value",
                "apex::search",
                "load unpersisted value",
            ),
            KnownRace::malign(
                20,
                true,
                "apex::insert_key",
                "apex::search_key",
                "load unpersisted key",
            ),
            KnownRace::benign(
                "apex::insert_key",
                "apex::search",
                "key store vs payload read",
            ),
            KnownRace::benign(
                "apex::insert_value",
                "apex::search_key",
                "value store vs key probe",
            ),
            KnownRace::benign("apex::put", "apex::search_key", "count bump vs probe"),
            KnownRace::benign("apex::erase", "apex::search_key", "tombstone vs probe"),
            KnownRace::benign("apex::erase", "apex::search", "tombstone vs payload read"),
            KnownRace::benign(
                "apex::expand",
                "apex::traverse",
                "SMO swap persisted pre-publication",
            ),
            KnownRace::benign(
                "apex::expand",
                "apex::search_key",
                "probe into the new node",
            ),
            KnownRace::benign(
                "apex::expand",
                "apex::search",
                "payload read in the new node",
            ),
            KnownRace::benign("apex::create", "apex::traverse", "directory initialization"),
        ]
    }

    fn default_workload(&self, main_ops: u64, seed: u64) -> AppWorkload {
        AppWorkload::Ycsb(WorkloadSpec::paper(main_ops, seed).generate())
    }

    fn execute_with(&self, workload: &AppWorkload, opts: &ExecOptions) -> ExecResult {
        let AppWorkload::Ycsb(w) = workload else {
            panic!("APEX consumes YCSB workloads")
        };
        run_apex(w, opts, ApexConfig::default())
    }
}

/// Runs a YCSB workload against a fresh index.
pub fn run_apex(w: &Workload, opts: &ExecOptions, cfg: ApexConfig) -> ExecResult {
    let env = env_for(opts);
    env.add_sync_config(apex_sync_config());
    let total = w.main_ops() as u64 + w.load.len() as u64;
    let pool = env.map_pool("/mnt/pmem/apex", (1 << 21) + total * 128);
    let main = env.main_thread();
    // Train on the load keys plus a sparse sample of the whole key space:
    // without insert-range coverage the linear model clamps every fresh key
    // into the last partition, which no real learned index would tolerate
    // (ALEX/WIPE retrain or split on out-of-range inserts).
    let max_key = w
        .per_thread
        .iter()
        .flatten()
        .map(|op| op.key())
        .chain(w.load.iter().map(|op| op.key()))
        .max()
        .unwrap_or(1);
    let mut train: Vec<u64> = w.load.iter().map(|op| op.key()).collect();
    train.extend((0..=64u64).map(|i| max_key * i / 64));
    let partitions = (total / 32).clamp(8, 4096);
    let apex = Arc::new(Apex::create(&env, &pool, &main, &train, partitions, cfg));
    for op in &w.load {
        apex.run_op(&main, op);
    }
    let schedules = Arc::new(w.per_thread.clone());
    let a2 = Arc::clone(&apex);
    run_workers(&env, &main, w.per_thread.len(), move |i, t| {
        for op in &schedules[i] {
            a2.run_op(t, op);
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

    fn fresh(partitions: u64) -> (PmEnv, Arc<Apex>, PmThread) {
        let env = PmEnv::new();
        env.add_sync_config(apex_sync_config());
        let pool = env.map_pool("/mnt/pmem/apex-test", 1 << 23);
        let main = env.main_thread();
        let train: Vec<u64> = (0..1000).collect();
        let a = Arc::new(Apex::create(
            &env,
            &pool,
            &main,
            &train,
            partitions,
            ApexConfig::default(),
        ));
        (env, a, main)
    }

    #[test]
    fn put_get_erase_roundtrip() {
        let (_env, a, t) = fresh(16);
        for k in 0..300u64 {
            a.put(&t, k, k + 9);
        }
        for k in 0..300u64 {
            assert_eq!(a.get(&t, k), Some(k + 9), "key {k}");
        }
        assert!(a.erase(&t, 5));
        assert_eq!(a.get(&t, 5), None);
        assert!(!a.erase(&t, 5));
        // A key colliding behind the tombstone must still be found.
        for k in 0..300u64 {
            if k != 5 {
                assert_eq!(a.get(&t, k), Some(k + 9), "post-erase key {k}");
            }
        }
    }

    #[test]
    fn update_in_place() {
        let (_env, a, t) = fresh(8);
        a.put(&t, 1, 10);
        a.put(&t, 1, 20);
        assert_eq!(a.get(&t, 1), Some(20));
    }

    #[test]
    fn expansion_preserves_entries() {
        let (_env, a, t) = fresh(4);
        for k in 0..400u64 {
            a.put(&t, k, k + 1);
        }
        for k in 0..400u64 {
            assert_eq!(a.get(&t, k), Some(k + 1), "key {k} lost in SMO");
        }
    }

    #[test]
    fn concurrent_disjoint_inserts_survive() {
        let (env, a, main) = fresh(32);
        let a2 = Arc::clone(&a);
        run_workers(&env, &main, 4, move |i, t| {
            for k in 0..100u64 {
                a2.put(t, i as u64 * 1000 + k, k + 1);
            }
        });
        for i in 0..4u64 {
            for k in 0..100u64 {
                assert_eq!(
                    a.get(&main, i * 1000 + k),
                    Some(k + 1),
                    "thread {i} key {k}"
                );
            }
        }
    }

    #[test]
    fn detects_bugs_19_and_20() {
        let w = WorkloadSpec::paper(2000, 19).generate();
        let res = run_apex(&w, &ExecOptions::default(), ApexConfig::default());
        let report = Analyzer::default().run(&res.trace);
        let b = score(&report.races, &ApexApp.known_races());
        assert!(
            b.detected_ids.contains(&19),
            "bug #19 missing: {:?}",
            b.detected_ids
        );
        assert!(
            b.detected_ids.contains(&20),
            "bug #20 missing: {:?}",
            b.detected_ids
        );
        // The APEX races exist despite correct persists: the reports must
        // NOT carry the never-persisted signature.
        for race in b.malign.iter() {
            assert!(
                !race.store_never_persisted,
                "APEX persists correctly: {}",
                race.summary()
            );
        }
    }
}
