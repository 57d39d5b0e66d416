//! The instrumented execution environment.
//!
//! [`PmEnv`] plays the role Intel PIN plays for the original tool: every PM
//! access, persistency instruction, synchronization operation and thread
//! lifecycle event performed through it is recorded — atomically with the
//! operation itself — into a totally ordered [`Trace`]. On top of the
//! recording it maintains the worst-case persistent image so crash states
//! can be materialized, and optionally runs an online
//! read-of-unpersisted-data observer used by the `pmrace` baseline. Both
//! apply the same worst-case persistence core the analysis simulates
//! ([`PersistLines`], from `hawkset_core::memsim::persist`), online: its
//! fences commit ranges, and the observer asks which open entries a load
//! overlaps.
//!
//! All state mutations happen under one internal mutex, which makes each
//! recorded event a linearization point of the operation it describes —
//! the same property PIN's serialized analysis callbacks provide.
//!
//! Every instrumented thread waits on that one lock, so an event takes it
//! once, holds it briefly and, in the steady state, allocates nothing
//! while it holds it. Under the lock run:
//!
//! * the operation on the volatile image: a copy into the pool, or out of
//!   it into the caller's buffer;
//! * the persistence core's bookkeeping, which keeps ranges, not bytes (a
//!   fence copies the ranges it commits from the volatile image to the
//!   persistent one);
//! * the observer, when it is on;
//! * classifying a custom primitive's call, so that takes no second lock;
//! * the thread's backtrace memo lookup and the push into the trace
//!   builder.
//!
//! Before the lock run the perturbation hook, behind an atomic flag so an
//! environment without one pays one load, and the allocation of the
//! buffer `load_bytes` returns. Under the lock only amortized growth (of
//! the trace builder and the core's lists), a thread's first access
//! from a new backtrace and an observed read allocate.

use std::panic::Location;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Weak};

use hawkset_core::addr::{line_of, AddrRange, PmAddr, CACHE_LINE};
use hawkset_core::memsim::persist::PersistLines;
use hawkset_core::sync_config::{CallEffect, SyncConfig};
use hawkset_core::trace::{
    EventKind, Frame, LockId, LockMode, PmRegion, StackId, ThreadId, Trace, TraceBuilder,
};
use parking_lot::Mutex;

use crate::thread::{PmJoinHandle, PmThread};

/// Where pools are placed in the simulated address space.
const POOL_BASE: PmAddr = 0x1000_0000;
const POOL_ALIGN: PmAddr = 0x1000_0000;

/// A point in execution where the perturbation hook fires (used by the
/// delay-injection baseline).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum HookPoint {
    /// Immediately before a PM store to this address.
    BeforeStore(PmAddr),
    /// Immediately before a PM load from this address.
    BeforeLoad(PmAddr),
    /// Immediately before a flush of the line containing this address.
    BeforeFlush(PmAddr),
    /// Immediately before a fence.
    BeforeFence,
    /// Immediately before a lock acquisition is recorded. Delaying here
    /// stretches the gap between taking the lock and the critical
    /// section's PM work — not a PM operation, so crash-point counting
    /// ignores it.
    BeforeAcquire(LockId),
    /// Immediately before a lock release is recorded. Delaying here holds
    /// the critical section open past its last PM write.
    BeforeRelease(LockId),
}

impl HookPoint {
    /// `true` for the PM data/persistency points that count toward the
    /// crash-injection op horizon; `false` for synchronization points.
    pub fn is_pm_op(&self) -> bool {
        !matches!(
            self,
            HookPoint::BeforeAcquire(_) | HookPoint::BeforeRelease(_)
        )
    }
}

/// Perturbation hook type.
pub type Hook = Arc<dyn Fn(ThreadId, HookPoint) + Send + Sync>;

/// One directly observed read of unpersisted foreign data — what the
/// observation-based baseline reports.
#[derive(Clone, Debug)]
pub struct Observation {
    /// The reading thread.
    pub load_tid: ThreadId,
    /// The thread whose store was still unpersisted.
    pub store_tid: ThreadId,
    /// Function name of the unpersisted store's site.
    pub store_fn: String,
    /// The bytes read.
    pub range: AddrRange,
    /// Backtrace of the load, innermost first.
    pub load_stack: Vec<Frame>,
}

struct PoolData {
    path: String,
    base: PmAddr,
    volatile: Vec<u8>,
    persistent: Vec<u8>,
}

struct EnvState {
    builder: TraceBuilder,
    /// Process-unique id of `builder`: a [`StackId`] a thread memoized is
    /// only reused in the builder that issued it.
    builder_id: u64,
    /// The open (dirty) pieces of every store, with the store's site, and
    /// each thread's fence watch: the worst-case rules the analysis
    /// simulates, applied online.
    persist: PersistLines<&'static str>,
    pools: Vec<PoolData>,
    observations: Vec<Observation>,
    main_taken: bool,
    /// Classifies custom synchronization calls (§5.5).
    sync_config: SyncConfig,
}

/// The index of the pool holding `addr` (pools are mapped at
/// `POOL_BASE + POOL_ALIGN * index`).
fn pool_index(addr: PmAddr) -> usize {
    ((addr - POOL_BASE) / POOL_ALIGN) as usize
}

/// Numbers every trace builder in the process (see `EnvState::builder_id`).
fn next_builder_id() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    NEXT.fetch_add(1, Ordering::Relaxed)
}

impl EnvState {
    /// The id of `t`'s backtrace at `loc` in this state's builder.
    fn stack_id(&mut self, t: &PmThread, loc: &'static Location<'static>) -> StackId {
        let builder = &mut self.builder;
        t.stack_id(loc, self.builder_id, |frames| builder.intern_stack(frames))
    }

    /// Pushes `kind` for `t`, with its backtrace at `loc`.
    fn record(&mut self, t: &PmThread, loc: &'static Location<'static>, kind: EventKind) {
        let stack = self.stack_id(t, loc);
        self.builder.push(t.tid(), stack, kind);
    }

    /// Records an [`Observation`] if `t`'s read of `range` sees bytes
    /// another thread has not persisted.
    fn observe_read(&mut self, t: &PmThread, range: AddrRange, loc: &'static Location<'static>) {
        let reader = t.tid();
        if let Some(dirty) = self.persist.overlapping(&range).find(|e| e.tid != reader) {
            self.observations.push(Observation {
                load_tid: reader,
                store_tid: dirty.tid,
                store_fn: dirty.payload.to_string(),
                range,
                load_stack: t.capture_stack(loc),
            });
        }
    }
}

pub(crate) struct EnvInner {
    state: Mutex<EnvState>,
    next_tid: AtomicU32,
    next_lock: AtomicU64,
    observe: AtomicBool,
    /// Whether `hook` holds a hook: read before every operation, so the
    /// hook's lock is taken only when there is one to call.
    hooked: AtomicBool,
    hook: Mutex<Option<Hook>>,
}

/// The instrumented PM world. Cheap to clone (shared handle).
#[derive(Clone)]
pub struct PmEnv {
    inner: Arc<EnvInner>,
}

impl Default for PmEnv {
    fn default() -> Self {
        Self::new()
    }
}

impl PmEnv {
    /// Creates a fresh environment with the built-in pthread-style
    /// synchronization configuration.
    pub fn new() -> Self {
        Self {
            inner: Arc::new(EnvInner {
                state: Mutex::new(EnvState {
                    builder: TraceBuilder::new(),
                    builder_id: next_builder_id(),
                    persist: PersistLines::new(),
                    pools: Vec::new(),
                    observations: Vec::new(),
                    main_taken: false,
                    sync_config: SyncConfig::builtin_pthread(),
                }),
                next_tid: AtomicU32::new(0),
                next_lock: AtomicU64::new(1),
                observe: AtomicBool::new(false),
                hooked: AtomicBool::new(false),
                hook: Mutex::new(None),
            }),
        }
    }

    /// Returns the context of the main thread (tid 0).
    ///
    /// # Panics
    ///
    /// Panics if called twice: there is one main thread.
    pub fn main_thread(&self) -> PmThread {
        {
            let mut st = self.inner.state.lock();
            assert!(!st.main_taken, "main_thread() already taken");
            st.main_taken = true;
        }
        let tid = ThreadId(self.inner.next_tid.fetch_add(1, Ordering::Relaxed));
        assert_eq!(tid, ThreadId::MAIN);
        PmThread::new(self.clone(), tid)
    }

    /// Maps a new zero-filled PM pool of `len` bytes (rounded up to a cache
    /// line) under `path`, mirroring `mmap` of a DAX file.
    pub fn map_pool(&self, path: impl Into<String>, len: u64) -> crate::pool::PmPool {
        self.map_pool_from_image(path, vec![0; len as usize])
    }

    /// Maps a pool whose initial (already-persistent) content is `image` —
    /// how recovery code reopens a pool after a simulated crash.
    pub fn map_pool_from_image(
        &self,
        path: impl Into<String>,
        image: Vec<u8>,
    ) -> crate::pool::PmPool {
        let path = path.into();
        let len = (image.len() as u64).div_ceil(CACHE_LINE) * CACHE_LINE;
        let mut volatile = image;
        volatile.resize(len as usize, 0);
        let persistent = volatile.clone();
        let mut st = self.inner.state.lock();
        let index = st.pools.len();
        let base = POOL_BASE + POOL_ALIGN * index as PmAddr;
        st.pools.push(PoolData {
            path: path.clone(),
            base,
            volatile,
            persistent,
        });
        st.builder.add_region(PmRegion { base, len, path });
        crate::pool::PmPool::new(self.clone(), index, base, len)
    }

    /// Installs a perturbation hook, called before every PM operation
    /// *outside* the recording lock (so injected delays overlap).
    pub fn set_hook(&self, hook: Option<Hook>) {
        let mut slot = self.inner.hook.lock();
        self.inner.hooked.store(hook.is_some(), Ordering::Release);
        *slot = hook;
    }

    /// Enables or disables online observation of reads of unpersisted
    /// foreign data (the baseline detector).
    pub fn set_observe(&self, on: bool) {
        self.inner.observe.store(on, Ordering::Relaxed);
    }

    /// Drains the observations recorded so far.
    pub fn take_observations(&self) -> Vec<Observation> {
        std::mem::take(&mut self.inner.state.lock().observations)
    }

    /// Replaces the synchronization configuration (§5.5: custom primitives
    /// need a small config file; pthread-style ones are built in).
    pub fn set_sync_config(&self, cfg: SyncConfig) {
        self.inner.state.lock().sync_config = cfg;
    }

    /// Extends the synchronization configuration.
    pub fn add_sync_config(&self, cfg: SyncConfig) {
        self.inner.state.lock().sync_config.merge(cfg);
    }

    /// Allocates a fresh lock id (used by the lock wrappers).
    pub(crate) fn new_lock_id(&self) -> LockId {
        LockId(self.inner.next_lock.fetch_add(1, Ordering::Relaxed))
    }

    /// Spawns an instrumented thread.
    #[track_caller]
    pub fn spawn<F, R>(&self, parent: &PmThread, f: F) -> PmJoinHandle<R>
    where
        F: FnOnce(&PmThread) -> R + Send + 'static,
        R: Send + 'static,
    {
        let loc = Location::caller();
        let child = ThreadId(self.inner.next_tid.fetch_add(1, Ordering::Relaxed));
        self.record(parent, loc, EventKind::ThreadCreate { child });
        let env = self.clone();
        let inner = std::thread::Builder::new()
            .name(format!("pm-{}", child.0))
            .spawn(move || {
                let t = PmThread::new(env, child);
                f(&t)
            })
            .expect("failed to spawn instrumented thread");
        PmJoinHandle { inner, child }
    }

    pub(crate) fn join_at(
        &self,
        joiner: &PmThread,
        child: ThreadId,
        loc: &'static Location<'static>,
    ) {
        self.record(joiner, loc, EventKind::ThreadJoin { child });
    }

    /// Finalizes and returns the trace. Call after all spawned threads are
    /// joined; later activity would land in a fresh, discarded builder.
    pub fn finish(&self) -> Trace {
        let mut st = self.inner.state.lock();
        st.builder_id = next_builder_id();
        std::mem::take(&mut st.builder).finish()
    }

    /// Returns a copy of the trace recorded *so far*, without finalizing.
    ///
    /// The environment keeps recording afterwards; the snapshot is the
    /// prefix of whatever [`finish`](Self::finish) would eventually return.
    /// This is what [`TraceGuard`](crate::guard::TraceGuard) flushes when a
    /// workload panics mid-run.
    pub fn snapshot(&self) -> Trace {
        self.inner.state.lock().builder.snapshot()
    }

    /// Returns the crash image of pool `index`: exactly the bytes
    /// guaranteed to be in PM at this instant (unpersisted stores are NOT
    /// in it).
    pub(crate) fn crash_image(&self, index: usize) -> Vec<u8> {
        self.inner.state.lock().pools[index].persistent.clone()
    }

    /// Returns the volatile (cache-visible) content of pool `index`.
    pub(crate) fn volatile_image(&self, index: usize) -> Vec<u8> {
        self.inner.state.lock().pools[index].volatile.clone()
    }

    /// Atomically snapshots the persisted-only image of *every* mapped
    /// pool as `(path, base, bytes)` triples, in mapping order. One lock
    /// acquisition covers all pools, so the images are mutually consistent
    /// — together they form one crash state, not a torn mix of instants.
    pub fn persisted_images(&self) -> Vec<(String, PmAddr, Vec<u8>)> {
        let st = self.inner.state.lock();
        st.pools
            .iter()
            .map(|p| (p.path.clone(), p.base, p.persistent.clone()))
            .collect()
    }

    /// A handle that does not keep the environment alive — what a
    /// [`CrashInjector`](crate::crash::CrashInjector) holds, since its hook
    /// lives inside the environment it watches.
    pub(crate) fn downgrade(&self) -> Weak<EnvInner> {
        Arc::downgrade(&self.inner)
    }

    /// The environment behind `weak`, if it is still alive.
    pub(crate) fn upgrade(weak: &Weak<EnvInner>) -> Option<Self> {
        weak.upgrade().map(|inner| Self { inner })
    }

    fn fire_hook(&self, tid: ThreadId, point: HookPoint) {
        if !self.inner.hooked.load(Ordering::Acquire) {
            return;
        }
        let hook = self.inner.hook.lock().clone();
        if let Some(h) = hook {
            h(tid, point);
        }
    }

    fn record(&self, t: &PmThread, loc: &'static Location<'static>, kind: EventKind) {
        self.inner.state.lock().record(t, loc, kind);
    }

    // ---- PM data operations (called via the pool handle) ----

    #[expect(clippy::too_many_arguments)] // internal fan-in of one pool op
    pub(crate) fn store_at(
        &self,
        t: &PmThread,
        index: usize,
        addr: PmAddr,
        bytes: &[u8],
        non_temporal: bool,
        atomic: bool,
        loc: &'static Location<'static>,
    ) {
        self.fire_hook(t.tid(), HookPoint::BeforeStore(addr));
        let range = AddrRange::new(addr, bytes.len() as u32);
        let mut st = self.inner.state.lock();
        let pool = &mut st.pools[index];
        let off = (addr - pool.base) as usize;
        pool.volatile[off..off + bytes.len()].copy_from_slice(bytes);
        st.persist
            .store(t.tid(), range, non_temporal, t.site_name(), |_, _| {});
        st.record(
            t,
            loc,
            EventKind::Store {
                range,
                non_temporal,
                atomic,
            },
        );
    }

    /// Loads `buf.len()` bytes at `addr` into `buf`.
    pub(crate) fn load_into(
        &self,
        t: &PmThread,
        index: usize,
        addr: PmAddr,
        buf: &mut [u8],
        atomic: bool,
        loc: &'static Location<'static>,
    ) {
        self.fire_hook(t.tid(), HookPoint::BeforeLoad(addr));
        let range = AddrRange::new(addr, buf.len() as u32);
        let mut st = self.inner.state.lock();
        if self.inner.observe.load(Ordering::Relaxed) {
            st.observe_read(t, range, loc);
        }
        let pool = &st.pools[index];
        let off = (addr - pool.base) as usize;
        buf.copy_from_slice(&pool.volatile[off..off + buf.len()]);
        st.record(t, loc, EventKind::Load { range, atomic });
    }

    /// Compare-and-swap of a u64, atomic with respect to all instrumented
    /// operations. Records an atomic load and, on success, an atomic store.
    pub(crate) fn cas_at(
        &self,
        t: &PmThread,
        index: usize,
        addr: PmAddr,
        expected: u64,
        new: u64,
        loc: &'static Location<'static>,
    ) -> Result<u64, u64> {
        self.fire_hook(t.tid(), HookPoint::BeforeStore(addr));
        let range = AddrRange::new(addr, 8);
        let mut st = self.inner.state.lock();
        if self.inner.observe.load(Ordering::Relaxed) {
            st.observe_read(t, range, loc);
        }
        let pool = &mut st.pools[index];
        let off = (addr - pool.base) as usize;
        let current = u64::from_le_bytes(pool.volatile[off..off + 8].try_into().expect("8 bytes"));
        let stack = st.stack_id(t, loc);
        st.builder.push(
            t.tid(),
            stack,
            EventKind::Load {
                range,
                atomic: true,
            },
        );
        if current == expected {
            let pool = &mut st.pools[index];
            pool.volatile[off..off + 8].copy_from_slice(&new.to_le_bytes());
            st.persist
                .store(t.tid(), range, false, t.site_name(), |_, _| {});
            st.builder.push(
                t.tid(),
                stack,
                EventKind::Store {
                    range,
                    non_temporal: false,
                    atomic: true,
                },
            );
            Ok(current)
        } else {
            Err(current)
        }
    }

    pub(crate) fn flush_at(&self, t: &PmThread, addr: PmAddr, loc: &'static Location<'static>) {
        self.fire_hook(t.tid(), HookPoint::BeforeFlush(addr));
        let mut st = self.inner.state.lock();
        st.persist.flush(t.tid(), line_of(addr));
        st.record(t, loc, EventKind::Flush { addr });
    }

    pub(crate) fn fence_at(&self, t: &PmThread, loc: &'static Location<'static>) {
        self.fire_hook(t.tid(), HookPoint::BeforeFence);
        let mut st = self.inner.state.lock();
        let EnvState { persist, pools, .. } = &mut *st;
        persist.fence(t.tid(), |committed| {
            // A committed range's bytes are still the volatile image's
            // (the overwrite rule): copy them over.
            let range = committed.range;
            let pool = &mut pools[pool_index(range.start)];
            let off = (range.start - pool.base) as usize;
            let len = range.len as usize;
            pool.persistent[off..off + len].copy_from_slice(&pool.volatile[off..off + len]);
        });
        st.record(t, loc, EventKind::Fence);
    }

    // ---- synchronization recording ----

    pub(crate) fn record_acquire(
        &self,
        t: &PmThread,
        lock: LockId,
        mode: LockMode,
        loc: &'static Location<'static>,
    ) {
        self.fire_hook(t.tid(), HookPoint::BeforeAcquire(lock));
        self.record(t, loc, EventKind::Acquire { lock, mode });
    }

    pub(crate) fn record_release(
        &self,
        t: &PmThread,
        lock: LockId,
        loc: &'static Location<'static>,
    ) {
        self.fire_hook(t.tid(), HookPoint::BeforeRelease(lock));
        self.record(t, loc, EventKind::Release { lock });
    }

    /// Routes a call to a *custom* synchronization primitive through the
    /// configuration (§5.5). Unknown functions are ignored — exactly like
    /// the real tool, which cannot instrument what the config does not
    /// name. Returns the effect that was applied.
    #[track_caller]
    pub fn custom_sync_call(
        &self,
        t: &PmThread,
        function: &str,
        lock: LockId,
        ret: Option<u64>,
    ) -> CallEffect {
        let loc = Location::caller();
        let mut st = self.inner.state.lock();
        let effect = st.sync_config.classify_call(function, ret);
        match effect {
            CallEffect::Acquire(mode) => st.record(t, loc, EventKind::Acquire { lock, mode }),
            CallEffect::Release => st.record(t, loc, EventKind::Release { lock }),
            CallEffect::FailedAcquire | CallEffect::NotSync => {}
        }
        effect
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::crash::{CrashInjector, CrashMode};
    use crate::pool::PmPool;

    /// A backtrace as `(function, line)` pairs in this file, innermost
    /// first.
    type Stack = Vec<(&'static str, u32)>;

    /// Asserts that `trace` validates and that its events carry exactly
    /// the backtraces `want`, in order.
    fn assert_stacks(trace: &Trace, want: &[Stack]) {
        trace.validate().expect("recorded trace validates");
        let got: Vec<Vec<(String, String, u32)>> = trace
            .iter()
            .map(|e| {
                trace
                    .stacks
                    .frames_of(e.stack)
                    .map(|f| (f.function.clone(), f.file.clone(), f.line))
                    .collect()
            })
            .collect();
        let want: Vec<Vec<(String, String, u32)>> = want
            .iter()
            .map(|s| {
                s.iter()
                    .map(|&(f, l)| (f.to_string(), file!().to_string(), l))
                    .collect()
            })
            .collect();
        assert_eq!(got, want);
    }

    #[test]
    fn recorded_backtraces_name_every_open_frame() {
        let env = PmEnv::new();
        let pool = env.map_pool("/mnt/pmem/stacks-a", 4096);
        let t = env.main_thread();
        let x = pool.base();
        let mut want: Vec<Stack> = Vec::new();

        // A top-level access is attributed to `<app>`.
        let top = line!() + 1;
        pool.store_u64(&t, x, 1);
        want.push(vec![("<app>", top)]);

        // Three nested frames, innermost first, each at its push site.
        let (fa, fb, fc, site) = (line!() + 2, line!() + 3, line!() + 4, line!() + 5);
        {
            let _a = t.frame("a");
            let _b = t.frame("b");
            let _c = t.frame("c");
            pool.store_u64(&t, x, 2);
        }
        want.push(vec![("c", site), ("c", fc), ("b", fb), ("a", fa)]);

        // One access site under two different frame stacks.
        let shared = line!() + 1;
        let touch = |t: &PmThread, p: &PmPool| p.store_u64(t, p.base(), 3);
        let fp = line!() + 2;
        let under_p = |t: &PmThread, p: &PmPool| {
            let _p = t.frame("p");
            touch(t, p)
        };
        under_p(&t, &pool);
        let fq = line!() + 2;
        {
            let _q = t.frame("q");
            touch(&t, &pool);
        }
        want.push(vec![("p", shared), ("p", fp)]);
        want.push(vec![("q", shared), ("q", fq)]);

        // One frame name pushed from two call sites.
        let (f1, s1, f2, s2) = (line!() + 2, line!() + 3, line!() + 6, line!() + 7);
        {
            let _s = t.frame("same");
            pool.store_u64(&t, x, 4);
        }
        {
            let _s = t.frame("same");
            pool.store_u64(&t, x, 5);
        }
        want.push(vec![("same", s1), ("same", f1)]);
        want.push(vec![("same", s2), ("same", f2)]);

        // A frame popped and pushed again, then a top-level access.
        let (fr, sr, after) = (line!() + 2, line!() + 3, line!() + 5);
        for _ in 0..2 {
            let _r = t.frame("again");
            pool.store_u64(&t, x, 6);
        }
        pool.store_u64(&t, x, 7);
        want.push(vec![("again", sr), ("again", fr)]);
        want.push(vec![("again", sr), ("again", fr)]);
        want.push(vec![("<app>", after)]);

        // A thread of env A storing into a pool of env B records into B's
        // builder; the same stack and site then resolve in A again.
        let other = PmEnv::new();
        let foreign = other.map_pool("/mnt/pmem/stacks-b", 4096);
        under_p(&t, &foreign);
        under_p(&t, &pool);
        want.push(vec![("p", shared), ("p", fp)]);
        assert_stacks(&env.finish(), &want);
        assert_stacks(&other.finish(), &[vec![("p", shared), ("p", fp)]]);

        // After finish() the env records into a new builder, so a stack the
        // thread used before is interned afresh there.
        let (fa2, sa2) = (line!() + 2, line!() + 3);
        {
            let _a = t.frame("a");
            pool.store_u64(&t, x, 10);
        }
        under_p(&t, &pool);
        assert_stacks(
            &env.finish(),
            &[vec![("a", sa2), ("a", fa2)], vec![("p", shared), ("p", fp)]],
        );
    }

    #[test]
    fn an_attached_crash_injector_does_not_keep_its_env_alive() {
        let env = PmEnv::new();
        let pool = env.map_pool("/mnt/pmem/leak", 4096);
        let t = env.main_thread();
        let inj = CrashInjector::at_points([0], CrashMode::Continue);
        inj.attach(&env);
        env.set_hook(Some(inj.hook()));
        pool.store_u64(&t, pool.base(), 1);
        assert_eq!(inj.images_captured(), 1);
        let weak = Arc::downgrade(&env.inner);
        drop((env, pool, t));
        assert!(
            weak.upgrade().is_none(),
            "the injector's hook must not keep the environment alive"
        );
    }

    const T0: ThreadId = ThreadId(0);
    const T1: ThreadId = ThreadId(1);

    /// One pool and two thread contexts (tids 0 and 1) on one OS thread:
    /// the persistence lines are driven through the environment, and the
    /// bytes a fence commits are read back from the pool's crash image.
    /// Offsets are relative to the pool base, which is line-aligned.
    struct Rig {
        env: PmEnv,
        pool: PmPool,
        threads: [PmThread; 2],
    }

    impl Rig {
        fn new() -> Self {
            let env = PmEnv::new();
            let pool = env.map_pool("/mnt/pmem/persist", 4096);
            let threads = [
                PmThread::new(env.clone(), T0),
                PmThread::new(env.clone(), T1),
            ];
            Self { env, pool, threads }
        }

        fn t(&self, tid: ThreadId) -> &PmThread {
            &self.threads[tid.0 as usize]
        }

        fn range(&self, off: u64, len: u32) -> AddrRange {
            AddrRange::new(self.pool.base() + off, len)
        }

        fn store(&self, tid: ThreadId, off: u64, bytes: &[u8]) {
            self.pool
                .store_bytes(self.t(tid), self.pool.base() + off, bytes);
        }

        fn store_nt(&self, tid: ThreadId, off: u64, bytes: &[u8]) {
            self.pool
                .store_bytes_nt(self.t(tid), self.pool.base() + off, bytes);
        }

        fn flush(&self, tid: ThreadId, off: u64) {
            self.pool.flush(self.t(tid), self.pool.base() + off);
        }

        fn fence(&self, tid: ThreadId) {
            self.t(tid).fence();
        }

        fn is_clean(&self, off: u64, len: u32) -> bool {
            let range = self.range(off, len);
            let st = self.env.inner.state.lock();
            let clean = st.persist.overlapping(&range).next().is_none();
            clean
        }

        fn dirty_entries(&self) -> usize {
            self.env.inner.state.lock().persist.open_entries()
        }

        /// The writer the observer names for `reader`'s load of the bytes,
        /// if any.
        fn foreign_writer(&self, reader: ThreadId, off: u64, len: u32) -> Option<ThreadId> {
            self.env.set_observe(true);
            self.pool
                .load_bytes(self.t(reader), self.pool.base() + off, len as usize);
            self.env.set_observe(false);
            let seen = self.env.take_observations();
            seen.first().map(|o| o.store_tid)
        }

        /// The crash image's bytes at `[off, off + len)`.
        fn durable(&self, off: u64, len: usize) -> Vec<u8> {
            self.pool.crash_image()[off as usize..off as usize + len].to_vec()
        }

        /// The offsets of the crash image's nonzero bytes: exactly what
        /// every fence so far committed, when every stored byte is nonzero.
        fn durable_offsets(&self) -> Vec<u64> {
            let image = self.pool.crash_image();
            (0..image.len() as u64)
                .filter(|&o| image[o as usize] != 0)
                .collect()
        }
    }

    fn offsets(off: u64, len: u64) -> Vec<u64> {
        (off..off + len).collect()
    }

    #[test]
    fn store_flush_fence_commits_bytes() {
        let r = Rig::new();
        r.store(T0, 0x100, &[7; 8]);
        assert!(!r.is_clean(0x100, 8));
        r.flush(T0, 0x100);
        r.fence(T0);
        assert_eq!(r.durable_offsets(), offsets(0x100, 8));
        assert_eq!(r.durable(0x100, 8), vec![7; 8]);
        assert!(r.is_clean(0x100, 8));
    }

    #[test]
    fn fence_by_non_flusher_commits_nothing() {
        let r = Rig::new();
        r.store(T0, 0x100, &[7; 8]);
        r.flush(T0, 0x100);
        r.fence(T1);
        assert!(r.durable_offsets().is_empty());
        assert!(!r.is_clean(0x100, 8));
        r.fence(T0);
        assert_eq!(r.durable_offsets(), offsets(0x100, 8));
    }

    #[test]
    fn overwrite_after_flush_voids_the_guarantee() {
        let r = Rig::new();
        r.store(T0, 0x100, &[1; 8]);
        r.flush(T0, 0x100);
        // Overwrite before the fence: neither value is guaranteed.
        r.store(T1, 0x100, &[2; 8]);
        r.fence(T0);
        assert!(r.durable_offsets().is_empty());
        assert_eq!(r.foreign_writer(T0, 0x100, 8), Some(T1));
    }

    #[test]
    fn partial_overwrite_commits_surviving_bytes() {
        let r = Rig::new();
        r.store(T0, 0x100, &[1; 16]);
        r.flush(T0, 0x100);
        r.store(T0, 0x108, &[2; 8]);
        r.fence(T0);
        assert_eq!(r.durable_offsets(), offsets(0x100, 8));
        assert_eq!(r.durable(0x100, 8), vec![1; 8]);
        // The overwriting store remains dirty.
        assert!(!r.is_clean(0x108, 8));
    }

    #[test]
    fn overwrite_inside_an_entry_keeps_both_ends() {
        let r = Rig::new();
        r.store(T0, 0x100, &[1; 24]);
        r.flush(T0, 0x100);
        r.store(T1, 0x108, &[2; 8]);
        r.fence(T0);
        let mut want = offsets(0x100, 8);
        want.extend(offsets(0x110, 8));
        assert_eq!(r.durable_offsets(), want);
        assert_eq!(r.durable(0x100, 24), [[1; 8], [0; 8], [1; 8]].concat());
        assert_eq!(r.dirty_entries(), 1);
    }

    #[test]
    fn non_temporal_store_commits_at_own_fence() {
        let r = Rig::new();
        r.store_nt(T0, 0x100, &[9; 8]);
        r.fence(T1);
        assert!(r.durable_offsets().is_empty());
        r.fence(T0);
        assert_eq!(r.durable_offsets(), offsets(0x100, 8));
        assert_eq!(r.durable(0x100, 8), vec![9; 8]);
    }

    #[test]
    fn foreign_writer_detection() {
        let r = Rig::new();
        r.store(T0, 0x100, &[1; 8]);
        // Reading your own dirty data is fine.
        assert!(r.foreign_writer(T0, 0x100, 8).is_none());
        // Another thread reading it is the PMRace trigger.
        assert_eq!(r.foreign_writer(T1, 0x100, 8), Some(T0));
        // Disjoint reads see nothing.
        assert!(r.foreign_writer(T1, 0x200, 8).is_none());
        // Once persisted the observation window is gone.
        r.flush(T0, 0x100);
        r.fence(T0);
        assert!(r.foreign_writer(T1, 0x100, 8).is_none());
    }

    #[test]
    fn cross_line_store_tracks_both_lines() {
        let r = Rig::new();
        r.store(T0, 0x138, &[5; 16]);
        r.flush(T0, 0x138); // first line only
        r.fence(T0);
        assert_eq!(r.durable_offsets(), offsets(0x138, 8));
        assert_eq!(r.durable(0x138, 8), vec![5; 8]);
        assert!(!r.is_clean(0x140, 8));
    }
}
