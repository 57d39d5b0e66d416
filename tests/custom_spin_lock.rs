//! `CustomSpinLock` with more instrumented threads than cores.
//!
//! Eight threads each add 1 to one PM word 200 times, a load then a
//! store, under one configured spin lock. With more spinners than cores
//! the holder must still get to run (the lock yields after a bounded
//! spin), no update may be lost, and the recorded critical sections must
//! nest exactly like the real ones.

use std::sync::Arc;

use hawkset::core::sync_config::SyncConfig;
use hawkset::core::trace::{EventKind, ThreadId};
use hawkset::runtime::{run_workers, CustomSpinLock, PmEnv};

const THREADS: usize = 8;
const ROUNDS: u64 = 200;

const CONFIG_JSON: &str = r#"{
    "primitives": [
        {"function": "spin_lock",   "kind": "acquire", "mode": "Exclusive"},
        {"function": "spin_unlock", "kind": "release"}
    ]
}"#;

#[test]
fn spin_lock_serializes_eight_threads_and_records_every_handover() {
    let env = PmEnv::new();
    env.add_sync_config(SyncConfig::from_json(CONFIG_JSON).expect("valid config"));
    let pool = env.map_pool("/mnt/pmem/spin", 4096);
    let main = env.main_thread();
    let word = pool.base();
    let lock = Arc::new(CustomSpinLock::new(&env, "spin_lock", "spin_unlock"));
    let id = lock.id();

    let p = pool.clone();
    run_workers(&env, &main, THREADS, move |_, t| {
        for _ in 0..ROUNDS {
            lock.lock(t);
            let v = p.load_u64(t, word);
            p.store_u64(t, word, v + 1);
            lock.unlock(t);
        }
    });
    assert_eq!(pool.load_u64(&main, word), THREADS as u64 * ROUNDS);

    // The lock's events alternate Acquire, Release, and each Release is
    // on the thread of the Acquire before it.
    let trace = env.finish();
    let mut holder: Option<ThreadId> = None;
    let mut handovers = 0;
    for event in trace.iter() {
        match event.kind {
            EventKind::Acquire { lock, .. } if lock == id => {
                assert_eq!(holder, None, "{:?} acquired a held lock", event.tid);
                holder = Some(event.tid);
            }
            EventKind::Release { lock } if lock == id => {
                assert_eq!(holder.take(), Some(event.tid), "release by a non-holder");
                handovers += 1;
            }
            _ => {}
        }
    }
    assert_eq!(holder, None, "the lock is held at the end");
    assert_eq!(handovers, THREADS as u64 * ROUNDS);
}
