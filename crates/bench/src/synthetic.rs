//! Synthetic trace generation for the throughput ratchet.
//!
//! The `smoke` binary's pairing and per-stage figures need traces whose
//! size and shape are controlled precisely (number of threads, accesses,
//! locking discipline, persist discipline), independent of any
//! application's logic.

use hawkset_core::addr::AddrRange;
use hawkset_core::trace::ThreadId;
use hawkset_core::trace::{EventKind, Frame, LockId, LockMode, Trace, TraceBuilder};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Parameters of a synthetic trace.
#[derive(Clone, Copy, Debug)]
pub struct SyntheticSpec {
    /// Worker threads (plus the main thread).
    pub threads: u32,
    /// PM operations per worker.
    pub ops_per_thread: u64,
    /// Distinct 8-byte PM locations.
    pub locations: u64,
    /// Fraction (percent) of operations that are stores.
    pub store_pct: u8,
    /// Fraction (percent) of stores persisted promptly (flush + fence in
    /// the same critical section).
    pub persist_pct: u8,
    /// Fraction (percent) of operations performed under a location lock.
    pub locked_pct: u8,
    /// RNG seed.
    pub seed: u64,
}

impl SyntheticSpec {
    /// A balanced default: 4 threads, mixed discipline.
    pub fn medium(ops_per_thread: u64) -> Self {
        Self {
            threads: 4,
            ops_per_thread,
            locations: 256,
            store_pct: 40,
            persist_pct: 70,
            locked_pct: 60,
            seed: 7,
        }
    }
}

/// Generates an interleaved trace matching `spec`.
///
/// Threads are round-robin interleaved (a legal observation order), so the
/// trace exercises cross-thread window/load pairing heavily.
pub fn synthetic_trace(spec: &SyntheticSpec) -> Trace {
    let mut rng = StdRng::seed_from_u64(spec.seed);
    let mut b = TraceBuilder::new();
    let base = 0x1000_0000u64;
    let stack_store = b.intern_stack([Frame::new("synthetic::store", "synthetic.rs", 1)]);
    let stack_load = b.intern_stack([Frame::new("synthetic::load", "synthetic.rs", 2)]);
    let stack_sync = b.intern_stack([Frame::new("synthetic::sync", "synthetic.rs", 3)]);

    for t in 1..=spec.threads {
        b.push(
            ThreadId(0),
            stack_sync,
            EventKind::ThreadCreate { child: ThreadId(t) },
        );
    }
    for i in 0..spec.ops_per_thread {
        for t in 1..=spec.threads {
            let tid = ThreadId(t);
            let loc = rng.gen_range(0..spec.locations);
            let addr = base + loc * 8;
            let range = AddrRange::new(addr, 8);
            let lock = LockId(loc % 32 + 1);
            let locked = rng.gen_range(0..100u8) < spec.locked_pct;
            if locked {
                b.push(
                    tid,
                    stack_sync,
                    EventKind::Acquire {
                        lock,
                        mode: LockMode::Exclusive,
                    },
                );
            }
            if rng.gen_range(0..100u8) < spec.store_pct {
                b.push(
                    tid,
                    stack_store,
                    EventKind::Store {
                        range,
                        non_temporal: false,
                        atomic: false,
                    },
                );
                if rng.gen_range(0..100u8) < spec.persist_pct {
                    b.push(tid, stack_store, EventKind::Flush { addr });
                    b.push(tid, stack_store, EventKind::Fence);
                }
            } else {
                b.push(
                    tid,
                    stack_load,
                    EventKind::Load {
                        range,
                        atomic: false,
                    },
                );
            }
            if locked {
                b.push(tid, stack_sync, EventKind::Release { lock });
            }
            let _ = i;
        }
    }
    for t in 1..=spec.threads {
        b.push(
            ThreadId(0),
            stack_sync,
            EventKind::ThreadJoin { child: ThreadId(t) },
        );
    }
    b.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use hawkset_core::analysis::Analyzer;

    #[test]
    fn synthetic_trace_is_valid_and_analyzable() {
        let trace = synthetic_trace(&SyntheticSpec::medium(200));
        assert!(trace.validate().is_ok());
        let report = Analyzer::default().run(&trace);
        // Unlocked / unpersisted stores against loads must yield races.
        assert!(!report.races.is_empty());
        assert!(report.stats.pairing.candidate_pairs > 0);
    }

    #[test]
    fn fully_disciplined_trace_is_clean() {
        let spec = SyntheticSpec {
            threads: 4,
            ops_per_thread: 100,
            locations: 64,
            store_pct: 40,
            persist_pct: 100,
            locked_pct: 100,
            seed: 3,
        };
        let trace = synthetic_trace(&spec);
        let report = Analyzer::default().run(&trace);
        assert!(
            report.is_clean(),
            "locked + promptly-persisted stores cannot race: {:?}",
            report.races.iter().map(|r| r.summary()).collect::<Vec<_>>()
        );
    }
}
