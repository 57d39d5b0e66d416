//! Crash images against a literal per-byte model, with several threads.
//!
//! Four instrumented threads run a seeded random sequence of PM
//! operations over two pools, one operation at a time: the main thread hands
//! each operation to its thread over a channel and waits for the answer
//! before the next, so the order is fixed by the sequence, not by timing.
//! After every operation `PmEnv::persisted_images()` must equal a per-byte
//! reference model of the worst-case persistency rules (§2.1), and every
//! load must read the model's volatile bytes.
//!
//! The model keeps, for each byte: its durable value, whether it is dirty,
//! and the value and thread set a flush (or a non-temporal store)
//! captured for it. A store makes the byte dirty and drops what was
//! captured (a non-temporal store captures its own value for its thread);
//! a flush captures a dirty byte's value for the flushing thread, or adds
//! that thread to what is already captured; a fence makes every byte
//! captured for its thread durable and clean.

use std::sync::mpsc;

use hawkset::core::addr::{line_base, line_of, AddrRange, CACHE_LINE};
use hawkset::runtime::{PmEnv, PmPool, PmThread};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const POOL_LEN: u64 = 512;
const WORKERS: usize = 4;
const OPS: usize = 400;

#[derive(Clone, Debug)]
enum Op {
    Store {
        pool: usize,
        off: u64,
        bytes: Vec<u8>,
    },
    StoreNt {
        pool: usize,
        off: u64,
        value: u64,
    },
    Cas {
        pool: usize,
        off: u64,
        expected: u64,
        new: u64,
    },
    Flush {
        pool: usize,
        off: u64,
    },
    FlushRange {
        pool: usize,
        off: u64,
        len: usize,
    },
    Fence,
    Load {
        pool: usize,
        off: u64,
        len: usize,
    },
}

/// What a worker saw: the bytes a load read, or a CAS's outcome.
#[derive(Debug, PartialEq, Eq)]
enum Seen {
    Nothing,
    Bytes(Vec<u8>),
    Cas(Result<u64, u64>),
}

fn run_op(pools: &[PmPool], t: &PmThread, op: &Op) -> Seen {
    let addr = |pool: usize, off: u64| pools[pool].base() + off;
    match *op {
        Op::Store {
            pool,
            off,
            ref bytes,
        } => pools[pool].store_bytes(t, addr(pool, off), bytes),
        Op::StoreNt { pool, off, value } => pools[pool].store_u64_nt(t, addr(pool, off), value),
        Op::Cas {
            pool,
            off,
            expected,
            new,
        } => return Seen::Cas(pools[pool].cas_u64(t, addr(pool, off), expected, new)),
        Op::Flush { pool, off } => pools[pool].flush(t, addr(pool, off)),
        Op::FlushRange { pool, off, len } => pools[pool].flush_range(t, addr(pool, off), len),
        Op::Fence => t.fence(),
        Op::Load { pool, off, len } => {
            return Seen::Bytes(pools[pool].load_bytes(t, addr(pool, off), len))
        }
    }
    Seen::Nothing
}

/// One byte of the reference model.
#[derive(Clone, Copy, Default)]
struct Byte {
    volatile: u8,
    durable: u8,
    dirty: bool,
    /// The value a flush or non-temporal store captured, and the threads
    /// (a bitmask of tids) whose fence makes it durable.
    captured: Option<(u8, u64)>,
}

struct Model {
    pools: Vec<Vec<Byte>>,
}

impl Model {
    fn new() -> Self {
        Self {
            pools: vec![vec![Byte::default(); POOL_LEN as usize]; 2],
        }
    }

    fn store(&mut self, tid: u32, pool: usize, off: u64, bytes: &[u8], non_temporal: bool) {
        for (i, &v) in bytes.iter().enumerate() {
            let b = &mut self.pools[pool][off as usize + i];
            b.volatile = v;
            b.dirty = true;
            b.captured = non_temporal.then_some((v, 1 << tid));
        }
    }

    fn flush_line(&mut self, tid: u32, pool: usize, off: u64) {
        let start = off / CACHE_LINE * CACHE_LINE;
        for b in &mut self.pools[pool][start as usize..(start + CACHE_LINE) as usize] {
            if b.dirty {
                let (value, set) = b.captured.unwrap_or((b.volatile, 0));
                b.captured = Some((value, set | 1 << tid));
            }
        }
    }

    fn fence(&mut self, tid: u32) {
        for b in self.pools.iter_mut().flatten() {
            if let Some((value, set)) = b.captured {
                if set & 1 << tid != 0 {
                    b.durable = value;
                    b.dirty = false;
                    b.captured = None;
                }
            }
        }
    }

    fn volatile(&self, pool: usize, off: u64, len: usize) -> Vec<u8> {
        self.pools[pool][off as usize..off as usize + len]
            .iter()
            .map(|b| b.volatile)
            .collect()
    }

    fn word(&self, pool: usize, off: u64) -> u64 {
        u64::from_le_bytes(self.volatile(pool, off, 8).try_into().unwrap())
    }

    fn durable(&self, pool: usize) -> Vec<u8> {
        self.pools[pool].iter().map(|b| b.durable).collect()
    }

    /// Applies `op`, run by `tid`, and returns what it must have seen.
    fn apply(&mut self, tid: u32, op: &Op) -> Seen {
        match *op {
            Op::Store {
                pool,
                off,
                ref bytes,
            } => self.store(tid, pool, off, bytes, false),
            Op::StoreNt { pool, off, value } => {
                self.store(tid, pool, off, &value.to_le_bytes(), true)
            }
            Op::Cas {
                pool,
                off,
                expected,
                new,
            } => {
                let current = self.word(pool, off);
                if current != expected {
                    return Seen::Cas(Err(current));
                }
                self.store(tid, pool, off, &new.to_le_bytes(), false);
                return Seen::Cas(Ok(current));
            }
            Op::Flush { pool, off } => self.flush_line(tid, pool, off),
            Op::FlushRange { pool, off, len } => {
                // `flush_range` flushes every line the range overlaps.
                for line in AddrRange::new(off, len.max(1) as u32).lines() {
                    self.flush_line(tid, pool, line_base(line));
                }
            }
            Op::Fence => self.fence(tid),
            Op::Load { pool, off, len } => return Seen::Bytes(self.volatile(pool, off, len)),
        }
        Seen::Nothing
    }
}

/// Draws the next operation. A CAS's expected value comes from the model,
/// so about half of them succeed.
fn draw(rng: &mut StdRng, model: &Model) -> Op {
    let pool = rng.gen_range(0..2usize);
    let word = |rng: &mut StdRng| rng.gen_range(0..POOL_LEN / 8) * 8;
    match rng.gen_range(0..8u32) {
        0 | 1 => {
            let len = rng.gen_range(1..73u64);
            let off = rng.gen_range(0..POOL_LEN - len + 1);
            let bytes = (0..len).map(|_| rng.gen_range(0..256u32) as u8).collect();
            Op::Store { pool, off, bytes }
        }
        2 => Op::StoreNt {
            pool,
            off: word(rng),
            value: rng.gen(),
        },
        3 => {
            let off = word(rng);
            let current = model.word(pool, off);
            let expected = if rng.gen() { current } else { !current };
            let new = rng.gen();
            Op::Cas {
                pool,
                off,
                expected,
                new,
            }
        }
        4 => Op::Flush {
            pool,
            off: rng.gen_range(0..POOL_LEN),
        },
        5 => {
            let len = rng.gen_range(0..130u64);
            let off = rng.gen_range(0..POOL_LEN - len.max(1) + 1);
            Op::FlushRange {
                pool,
                off,
                len: len as usize,
            }
        }
        6 => Op::Fence,
        _ => {
            let len = rng.gen_range(1..73u64);
            Op::Load {
                pool,
                off: rng.gen_range(0..POOL_LEN - len + 1),
                len: len as usize,
            }
        }
    }
}

fn run_seed(seed: u64) {
    let env = PmEnv::new();
    let pools = vec![
        env.map_pool("/mnt/pmem/model-a", POOL_LEN),
        env.map_pool("/mnt/pmem/model-b", POOL_LEN),
    ];
    let main = env.main_thread();
    let (seen_tx, seen_rx) = mpsc::channel::<Seen>();
    let mut inboxes = Vec::new();
    let mut handles = Vec::new();
    for _ in 0..WORKERS {
        let (tx, rx) = mpsc::channel::<Op>();
        let (pools, seen_tx) = (pools.clone(), seen_tx.clone());
        let handle = env.spawn(&main, move |t| {
            for op in rx {
                seen_tx
                    .send(run_op(&pools, t, &op))
                    .expect("main thread alive");
            }
        });
        inboxes.push((handle.child_tid().0, tx));
        handles.push(handle);
    }

    let mut rng = StdRng::seed_from_u64(seed);
    let mut model = Model::new();
    for step in 0..OPS {
        let (tid, inbox) = &inboxes[rng.gen_range(0..WORKERS)];
        let op = draw(&mut rng, &model);
        inbox.send(op.clone()).expect("worker alive");
        let seen = seen_rx.recv().expect("worker answers");
        let want = model.apply(*tid, &op);
        assert_eq!(seen, want, "seed {seed} step {step}: {op:?} by t{tid}");
        let images = env.persisted_images();
        for (pool, (_, base, bytes)) in images.iter().enumerate() {
            assert_eq!(*base, pools[pool].base());
            let durable = model.durable(pool);
            if *bytes != durable {
                let at = (0..bytes.len()).find(|&i| bytes[i] != durable[i]).unwrap();
                panic!(
                    "seed {seed} step {step}: {op:?} by t{tid}: pool {pool} byte {at:#x} \
                     (line {:#x}) is {:#04x} in the crash image, {:#04x} in the model",
                    line_of(at as u64),
                    bytes[at],
                    durable[at]
                );
            }
        }
    }
    drop(inboxes);
    for handle in handles {
        handle.join(&main);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// After every operation of a seeded multi-thread sequence, the crash
    /// images equal the per-byte model's durable bytes.
    #[test]
    fn crash_images_match_a_per_byte_model(seed in any::<u64>()) {
        run_seed(seed);
    }
}
