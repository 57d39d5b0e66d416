//! YCSB-style workload specification and generation.
//!
//! §5 (Workloads): "the workloads were generated using YCSB with a load
//! phase of 1k insertions, and a main phase with 30% insertions, 30%
//! updates, 30% gets, and 10% deletes", run on eight threads with 1k, 10k
//! or 100k main-phase operations. This module produces exactly that shape:
//! a deterministic, seedable per-thread operation schedule.

use hawkset_core::hash::fnv1a_u64;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

use crate::zipfian::Distribution;

/// One key-value operation.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum Op {
    /// Insert `key` with a fresh value.
    Insert {
        /// Key to insert.
        key: u64,
        /// Value payload (derived, deterministic).
        value: u64,
    },
    /// Update `key` with a new value.
    Update {
        /// Key to update.
        key: u64,
        /// New value payload.
        value: u64,
    },
    /// Point lookup of `key`.
    Get {
        /// Key to read.
        key: u64,
    },
    /// Delete `key`.
    Delete {
        /// Key to remove.
        key: u64,
    },
}

impl Op {
    /// The key the operation targets.
    pub fn key(&self) -> u64 {
        match self {
            Op::Insert { key, .. }
            | Op::Update { key, .. }
            | Op::Get { key }
            | Op::Delete { key } => *key,
        }
    }
}

/// Operation mix in percent; must sum to 100.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct OpMix {
    /// Percent of inserts.
    pub insert: u8,
    /// Percent of updates.
    pub update: u8,
    /// Percent of gets.
    pub get: u8,
    /// Percent of deletes.
    pub delete: u8,
}

impl OpMix {
    /// The paper's main-phase mix: 30/30/30/10.
    pub const PAPER: OpMix = OpMix {
        insert: 30,
        update: 30,
        get: 30,
        delete: 10,
    };

    /// Validates that the mix sums to 100%.
    pub fn validate(&self) -> Result<(), String> {
        let sum = self.insert as u32 + self.update as u32 + self.get as u32 + self.delete as u32;
        if sum == 100 {
            Ok(())
        } else {
            Err(format!("operation mix sums to {sum}%, expected 100%"))
        }
    }
}

/// A complete workload specification.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct WorkloadSpec {
    /// Insertions performed single-threaded before the main phase.
    pub load_ops: u64,
    /// Total operations in the concurrent main phase.
    pub main_ops: u64,
    /// Worker threads executing the main phase.
    pub threads: u32,
    /// Operation mix of the main phase.
    pub mix: OpMix,
    /// Key distribution of the main phase.
    pub distribution: Distribution,
    /// Size of the key space keys are drawn from.
    pub key_space: u64,
    /// RNG seed; equal specs generate equal workloads.
    pub seed: u64,
    /// Percent of non-insert operations that target the *insert* key range
    /// (read-your-writes coverage). 0 keeps reads/updates/deletes on the
    /// load-phase keys only — a workload that never exercises growth.
    #[serde(default)]
    pub fresh_ratio: u8,
}

impl WorkloadSpec {
    /// The paper's configuration for a given main-phase size and seed:
    /// 1k-insert load phase, 8 threads, 30/30/30/10 zipfian main phase.
    pub fn paper(main_ops: u64, seed: u64) -> Self {
        Self {
            load_ops: 1000,
            main_ops,
            threads: 8,
            mix: OpMix::PAPER,
            distribution: Distribution::Zipfian,
            key_space: 1000 + main_ops,
            seed,
            fresh_ratio: 33,
        }
    }

    /// PMRace-style seed workloads average ~400 operations (§5.2), with a
    /// smaller load phase so races during growth remain reachable.
    ///
    /// The corpus is deliberately *diverse in composition*, like the 240
    /// seeds shipped with PMRace: the insert share varies from 0% to 40%
    /// across seeds, so some seeds never grow the tree at all. That
    /// diversity is what produces the partial per-seed hit rates of
    /// Table 3 (bug #1 on 120/240 seeds, bug #2 on 83/240): a tool can
    /// only find a race in a workload that covers the racy operations.
    pub fn pmrace_seed(seed: u64) -> Self {
        // Inserts AND updates both create unseen keys in these stores, so
        // a growth-free seed must avoid both; the corpus mixes read-only,
        // read-mostly and write-heavy compositions.
        let r = fnv1a_u64(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ 0x5eed);
        let (insert, update) =
            [(0u8, 0u8), (0, 0), (0, 2), (0, 4), (30, 30), (40, 20)][(r % 6) as usize];
        let delete = 10;
        let get = 100 - insert - update - delete;
        Self {
            load_ops: 100,
            main_ops: 400,
            threads: 8,
            mix: OpMix {
                insert,
                update,
                get,
                delete,
            },
            // Fuzzer-generated seed inputs have arbitrary keys: uniform.
            distribution: Distribution::Uniform,
            key_space: 700,
            seed,
            // Growth-free seeds stay growth-free: their reads and updates
            // never stray into the insert key range.
            fresh_ratio: if insert == 0 && update == 0 { 0 } else { 33 },
        }
    }

    /// Generates the workload: the single-threaded load phase plus one
    /// schedule per worker thread.
    pub fn generate(&self) -> Workload {
        self.mix.validate().expect("invalid op mix");
        let mut rng = StdRng::seed_from_u64(self.seed);
        // Load phase: distinct keys, deterministic values.
        let load: Vec<Op> = (0..self.load_ops)
            .map(|i| Op::Insert {
                key: i,
                value: value_for(self.seed, i, 0),
            })
            .collect();

        let mut dist = self.distribution.build(self.key_space.max(1));
        let mut per_thread: Vec<Vec<Op>> = vec![Vec::new(); self.threads.max(1) as usize];
        for i in 0..self.main_ops {
            let t = (i % self.threads.max(1) as u64) as usize;
            let key = dist.next_dyn(&mut rng);
            let roll = rng.gen_range(0..100u8);
            // Reads/updates/deletes target the insert key range a third of
            // the time — YCSB's read-your-writes behaviour, and the only
            // way freshly inserted records get exercised (several §5.1
            // bugs are reads of *new* data).
            let target = if rng.gen_range(0..100u8) < self.fresh_ratio {
                self.load_ops + key
            } else {
                key
            };
            let op = if roll < self.mix.insert {
                // Inserts target fresh keys beyond the load range so trees
                // and tables actually grow (splits/rehashes are where the
                // §5.1 bugs live).
                Op::Insert {
                    key: self.load_ops + key,
                    value: value_for(self.seed, key, i),
                }
            } else if roll < self.mix.insert + self.mix.update {
                Op::Update {
                    key: target,
                    value: value_for(self.seed, key, i),
                }
            } else if roll < self.mix.insert + self.mix.update + self.mix.get {
                Op::Get { key: target }
            } else {
                Op::Delete { key: target }
            };
            per_thread[t].push(op);
        }
        Workload { load, per_thread }
    }
}

/// Deterministic value payload derivation.
fn value_for(seed: u64, key: u64, op_index: u64) -> u64 {
    fnv1a_u64(seed ^ key.rotate_left(17) ^ op_index.rotate_left(43)) | 1
}

/// A generated workload, ready to execute.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Workload {
    /// Single-threaded load phase (all inserts).
    pub load: Vec<Op>,
    /// Main-phase schedule, one op list per worker thread.
    pub per_thread: Vec<Vec<Op>>,
}

impl Workload {
    /// Total main-phase operations.
    pub fn main_ops(&self) -> usize {
        self.per_thread.iter().map(Vec::len).sum()
    }

    /// Returns `true` if any thread's schedule contains an insert (growth
    /// coverage — prerequisite for the Fast-Fair split bugs).
    pub fn has_inserts(&self) -> bool {
        self.per_thread
            .iter()
            .flatten()
            .any(|op| matches!(op, Op::Insert { .. }))
    }

    /// Returns `true` if any schedule contains a delete.
    pub fn has_deletes(&self) -> bool {
        self.per_thread
            .iter()
            .flatten()
            .any(|op| matches!(op, Op::Delete { .. }))
    }

    /// Re-deals the main phase across `threads` worker threads (the
    /// thread-count axis of steered campaigns). Ops are flattened in
    /// index-major order — op *i* of each thread in turn, preserving the
    /// interleaving flavour of the original schedule — then dealt
    /// round-robin, so the total op multiset is unchanged. `threads == 0`
    /// is a no-op.
    pub fn reshard(&self, threads: usize) -> Workload {
        if threads == 0 || threads == self.per_thread.len() {
            return self.clone();
        }
        let longest = self.per_thread.iter().map(Vec::len).max().unwrap_or(0);
        let flat: Vec<Op> = (0..longest)
            .flat_map(|i| self.per_thread.iter().filter_map(move |t| t.get(i)))
            .copied()
            .collect();
        let mut per_thread = vec![Vec::new(); threads];
        for (i, op) in flat.into_iter().enumerate() {
            per_thread[i % threads].push(op);
        }
        Workload {
            load: self.load.clone(),
            per_thread,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reshard_preserves_op_multiset_and_changes_thread_count() {
        let w = WorkloadSpec::pmrace_seed(3).generate();
        for threads in [1usize, 2, 5, 16] {
            let r = w.reshard(threads);
            assert_eq!(r.per_thread.len(), threads);
            assert_eq!(r.main_ops(), w.main_ops());
            let count = |wl: &Workload| {
                let mut ops: Vec<Op> = wl.per_thread.iter().flatten().copied().collect();
                ops.sort_by_key(|o| (o.key(), format!("{o:?}")));
                ops
            };
            assert_eq!(count(&r), count(&w), "reshard({threads}) altered ops");
        }
        assert_eq!(w.reshard(0), w, "0 threads is a no-op");
    }

    #[test]
    fn paper_spec_matches_section5() {
        let spec = WorkloadSpec::paper(10_000, 7);
        assert_eq!(spec.load_ops, 1000);
        assert_eq!(spec.threads, 8);
        assert_eq!(spec.mix, OpMix::PAPER);
        let w = spec.generate();
        assert_eq!(w.load.len(), 1000);
        assert_eq!(w.main_ops(), 10_000);
        assert_eq!(w.per_thread.len(), 8);
    }

    #[test]
    fn generation_is_deterministic() {
        let a = WorkloadSpec::paper(1000, 42).generate();
        let b = WorkloadSpec::paper(1000, 42).generate();
        assert_eq!(a, b);
        let c = WorkloadSpec::paper(1000, 43).generate();
        assert_ne!(a, c);
    }

    #[test]
    fn mix_proportions_roughly_hold() {
        let w = WorkloadSpec::paper(20_000, 1).generate();
        let all: Vec<&Op> = w.per_thread.iter().flatten().collect();
        let count = |f: fn(&Op) -> bool| all.iter().filter(|op| f(op)).count() as f64;
        let n = all.len() as f64;
        let inserts = count(|o| matches!(o, Op::Insert { .. })) / n;
        let updates = count(|o| matches!(o, Op::Update { .. })) / n;
        let gets = count(|o| matches!(o, Op::Get { .. })) / n;
        let deletes = count(|o| matches!(o, Op::Delete { .. })) / n;
        assert!((inserts - 0.30).abs() < 0.02, "inserts {inserts}");
        assert!((updates - 0.30).abs() < 0.02, "updates {updates}");
        assert!((gets - 0.30).abs() < 0.02, "gets {gets}");
        assert!((deletes - 0.10).abs() < 0.02, "deletes {deletes}");
    }

    #[test]
    fn invalid_mix_is_rejected() {
        let bad = OpMix {
            insert: 50,
            update: 50,
            get: 50,
            delete: 0,
        };
        assert!(bad.validate().is_err());
        assert!(OpMix::PAPER.validate().is_ok());
    }

    #[test]
    fn load_phase_keys_are_dense_and_distinct() {
        let w = WorkloadSpec::paper(100, 9).generate();
        for (i, op) in w.load.iter().enumerate() {
            match op {
                Op::Insert { key, .. } => assert_eq!(*key, i as u64),
                other => panic!("load phase must be inserts, got {other:?}"),
            }
        }
    }

    #[test]
    fn op_key_accessor() {
        assert_eq!(Op::Insert { key: 5, value: 1 }.key(), 5);
        assert_eq!(Op::Get { key: 7 }.key(), 7);
        assert_eq!(Op::Delete { key: 9 }.key(), 9);
    }
}
