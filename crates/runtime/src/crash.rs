//! Crash-point injection.
//!
//! The analysis side of this reproduction *infers* which stores could be
//! lost in a crash; validating a report the way PMRace's post-failure stage
//! or Durinn's crash-state testing do requires actually *producing* the
//! crash state and re-running recovery on it. [`CrashInjector`] is the
//! producing half: hooked into a [`PmEnv`], it counts every PM operation
//! and, at a deterministic set of `(seed, op-index)` points, captures the
//! **persisted-only image** of every mapped pool — the bytes the runtime's
//! shadow persistence state guarantees are in PM, with all dirty
//! (unflushed or unfenced) lines dropped. That is the worst-case cache model the paper's instrumentation
//! assumes: anything not explicitly persisted may vanish.
//!
//! Two modes:
//!
//! * [`CrashMode::StopTheWorld`] — after capturing, the thread that hit the
//!   crash point panics with a [`SimulatedCrash`] payload, modelling the
//!   process dying at that instant. Harnesses recognize the payload (via
//!   `downcast_ref`) and distinguish a simulated crash from a genuine bug.
//! * [`CrashMode::Continue`] — the image is captured and execution carries
//!   on, so one run yields many candidate crash states *and* a complete
//!   trace for the lockset analysis — the mode campaign drivers use.
//!
//! Captured images are either buffered ([`CrashInjector::take_images`]) or
//! streamed to a sink ([`CrashInjector::set_sink`]) so a dense sweep over
//! thousands of crash points does not hold every pool snapshot in memory.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Weak};

use hawkset_core::addr::PmAddr;
use hawkset_core::hash::fnv1a_u64;
use hawkset_core::trace::ThreadId;
use parking_lot::Mutex;

use crate::env::{EnvInner, Hook, HookPoint, PmEnv};

/// What happens when a crash point is reached.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CrashMode {
    /// Capture the image, then panic the triggering thread with a
    /// [`SimulatedCrash`] payload. Only the first crash point fires.
    StopTheWorld,
    /// Capture the image and keep running; every crash point fires.
    Continue,
}

/// The persisted-only content of one pool at the crash instant.
#[derive(Clone, Debug)]
pub struct PoolImage {
    /// The pool's path, as passed to [`PmEnv::map_pool`] — what recovery
    /// code would reopen.
    pub path: String,
    /// The pool's base address in the simulated address space.
    pub base: PmAddr,
    /// The bytes guaranteed to be in PM (dirty lines dropped).
    pub bytes: Vec<u8>,
}

/// One captured crash state: every pool's persisted-only image.
#[derive(Clone, Debug)]
pub struct CrashImage {
    /// Global PM-operation index at which the crash fired (deterministic
    /// placement; the *content* still depends on the schedule).
    pub op_index: u64,
    /// The thread that hit the crash point.
    pub tid: ThreadId,
    /// Persisted-only images of all pools, in mapping order.
    pub pools: Vec<PoolImage>,
}

/// Panic payload of a [`CrashMode::StopTheWorld`] crash. Harnesses
/// `downcast_ref::<SimulatedCrash>()` the payload of a caught panic to tell
/// an injected crash from a real failure.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SimulatedCrash {
    /// The op index the crash fired at.
    pub op_index: u64,
}

impl std::fmt::Display for SimulatedCrash {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "simulated crash at PM op {}", self.op_index)
    }
}

type CaptureSink = dyn Fn(CrashImage) + Send + Sync;

/// Deterministic crash-point hook. Create with [`CrashInjector::at_points`]
/// or [`CrashInjector::seeded`], attach to an environment, and install
/// [`CrashInjector::hook`].
pub struct CrashInjector {
    /// Sorted, deduplicated op indices at which to capture.
    points: Vec<u64>,
    mode: CrashMode,
    counter: AtomicU64,
    captured: AtomicU64,
    crashed: AtomicBool,
    /// The attached environment, held weakly: the injector's hook lives
    /// inside that environment, so a strong handle would be a cycle that
    /// keeps every pool image alive after the run.
    env: Mutex<Weak<EnvInner>>,
    images: Mutex<Vec<CrashImage>>,
    sink: Mutex<Option<Arc<CaptureSink>>>,
}

impl CrashInjector {
    /// Creates an injector firing at exactly the given global op indices.
    pub fn at_points(points: impl IntoIterator<Item = u64>, mode: CrashMode) -> Arc<Self> {
        let mut points: Vec<u64> = points.into_iter().collect();
        points.sort_unstable();
        points.dedup();
        Arc::new(Self {
            points,
            mode,
            counter: AtomicU64::new(0),
            captured: AtomicU64::new(0),
            crashed: AtomicBool::new(false),
            env: Mutex::new(Weak::new()),
            images: Mutex::new(Vec::new()),
            sink: Mutex::new(None),
        })
    }

    /// Creates an injector with `count` pseudo-random crash points placed
    /// deterministically by `seed` within `[0, horizon)` — the same
    /// `(seed, count, horizon)` always yields the same placements.
    pub fn seeded(seed: u64, count: usize, horizon: u64, mode: CrashMode) -> Arc<Self> {
        let horizon = horizon.max(1);
        let points = (0..count as u64)
            .map(|i| fnv1a_u64(seed ^ i.wrapping_mul(0x9e37_79b9_7f4a_7c15)) % horizon);
        Self::at_points(points, mode)
    }

    /// The chosen crash points, sorted and deduplicated.
    pub fn points(&self) -> &[u64] {
        &self.points
    }

    /// Binds the injector to the environment whose pools it snapshots.
    /// Must be called before the first crash point fires; capturing without
    /// an attached (or with an already dropped) environment yields an image
    /// with no pools. The injector does not keep the environment alive.
    pub fn attach(&self, env: &PmEnv) {
        *self.env.lock() = env.downgrade();
    }

    /// Streams captured images to `sink` instead of buffering them —
    /// essential for dense sweeps, where buffering every pool snapshot
    /// would hold the whole history in memory.
    pub fn set_sink(&self, sink: impl Fn(CrashImage) + Send + Sync + 'static) {
        *self.sink.lock() = Some(Arc::new(sink));
    }

    /// Total PM operations seen so far — used by two-pass drivers that
    /// measure a run's op horizon before placing crash points.
    pub fn op_count(&self) -> u64 {
        self.counter.load(Ordering::Relaxed)
    }

    /// Number of images captured (buffered or streamed).
    pub fn images_captured(&self) -> u64 {
        self.captured.load(Ordering::Relaxed)
    }

    /// Returns `true` once a [`CrashMode::StopTheWorld`] crash has fired.
    pub fn crashed(&self) -> bool {
        self.crashed.load(Ordering::Relaxed)
    }

    /// Drains the buffered images (empty if a sink consumes them).
    pub fn take_images(&self) -> Vec<CrashImage> {
        std::mem::take(&mut *self.images.lock())
    }

    /// Wraps the injector as a runtime hook. Fires *before* the operation
    /// with the matching index executes, so the captured image excludes it.
    pub fn hook(self: &Arc<Self>) -> Hook {
        let me = Arc::clone(self);
        Arc::new(move |tid: ThreadId, point: HookPoint| {
            // Only PM data/persistency operations advance the op horizon;
            // synchronization points (acquire/release) fire the hook too,
            // but counting them would make crash placement depend on lock
            // traffic rather than persistent-state progress.
            if !point.is_pm_op() {
                return;
            }
            let n = me.counter.fetch_add(1, Ordering::Relaxed);
            if me.points.binary_search(&n).is_err() {
                return;
            }
            if me.crashed.load(Ordering::Relaxed) {
                return; // the world already stopped; nothing more to see
            }
            me.capture(n, tid);
            if me.mode == CrashMode::StopTheWorld {
                me.crashed.store(true, Ordering::Relaxed);
                std::panic::panic_any(SimulatedCrash { op_index: n });
            }
        })
    }

    fn capture(&self, op_index: u64, tid: ThreadId) {
        let env = PmEnv::upgrade(&self.env.lock());
        let pools = env.map_or_else(Vec::new, |env| {
            env.persisted_images()
                .into_iter()
                .map(|(path, base, bytes)| PoolImage { path, base, bytes })
                .collect()
        });
        let image = CrashImage {
            op_index,
            tid,
            pools,
        };
        self.captured.fetch_add(1, Ordering::Relaxed);
        let sink = self.sink.lock().clone();
        match sink {
            Some(sink) => sink(image),
            None => self.images.lock().push(image),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeded_points_are_deterministic_per_seed() {
        let a = CrashInjector::seeded(42, 16, 10_000, CrashMode::Continue);
        let b = CrashInjector::seeded(42, 16, 10_000, CrashMode::Continue);
        let c = CrashInjector::seeded(43, 16, 10_000, CrashMode::Continue);
        assert_eq!(
            a.points(),
            b.points(),
            "same seed must place identical crash points"
        );
        assert_ne!(
            a.points(),
            c.points(),
            "different seeds must place differently"
        );
        assert!(a.points().iter().all(|&p| p < 10_000));
    }

    #[test]
    fn continue_mode_captures_persisted_only_bytes() {
        let env = PmEnv::new();
        let pool = env.map_pool("/mnt/pmem/crashinj", 4096);
        let main = env.main_thread();
        // Persist 1 at +0, dirty 2 at +64; crash point after both.
        pool.store_u64(&main, pool.base(), 1);
        pool.persist(&main, pool.base(), 8);
        pool.store_u64(&main, pool.base() + 64, 2); // never persisted

        let inj = CrashInjector::at_points([4], CrashMode::Continue);
        inj.attach(&env);
        env.set_hook(Some(inj.hook()));
        // Ops 0..3 under the hook; op 4 triggers the capture *before* the
        // load executes.
        pool.store_u64(&main, pool.base() + 128, 3);
        pool.persist(&main, pool.base() + 128, 8); // flush + fence = ops 1, 2
        pool.store_u64(&main, pool.base() + 192, 4);
        assert_eq!(pool.load_u64(&main, pool.base()), 1); // op 4: crash point

        let images = inj.take_images();
        assert_eq!(images.len(), 1);
        let img = &images[0];
        assert_eq!(img.op_index, 4);
        assert_eq!(img.pools.len(), 1);
        assert_eq!(img.pools[0].path, "/mnt/pmem/crashinj");
        let at = |off: usize| {
            u64::from_le_bytes(
                img.pools[0].bytes[off..off + 8]
                    .try_into()
                    .expect("8 bytes"),
            )
        };
        assert_eq!(at(0), 1, "persisted before the hook was installed");
        assert_eq!(at(64), 0, "dirty store must NOT be in the crash image");
        assert_eq!(at(128), 3, "persisted under the hook");
        assert_eq!(at(192), 0, "store at op 3 was never persisted");
    }

    #[test]
    fn stop_the_world_panics_with_simulated_crash_payload() {
        let env = PmEnv::new();
        let pool = env.map_pool("/mnt/pmem/crash-stw", 4096);
        let main = env.main_thread();
        let inj = CrashInjector::at_points([1], CrashMode::StopTheWorld);
        inj.attach(&env);
        env.set_hook(Some(inj.hook()));
        pool.store_u64(&main, pool.base(), 7); // op 0
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            pool.store_u64(&main, pool.base() + 8, 8); // op 1: crash
        }))
        .expect_err("the crash point must panic");
        let crash = err
            .downcast_ref::<SimulatedCrash>()
            .expect("payload is SimulatedCrash");
        assert_eq!(crash.op_index, 1);
        assert!(inj.crashed());
        assert_eq!(inj.images_captured(), 1);
    }

    #[test]
    fn sink_receives_images_instead_of_buffer() {
        let env = PmEnv::new();
        let pool = env.map_pool("/mnt/pmem/crash-sink", 4096);
        let main = env.main_thread();
        let inj = CrashInjector::at_points([0, 2], CrashMode::Continue);
        inj.attach(&env);
        let seen = Arc::new(Mutex::new(Vec::new()));
        let seen2 = Arc::clone(&seen);
        inj.set_sink(move |img| seen2.lock().push(img.op_index));
        env.set_hook(Some(inj.hook()));
        pool.store_u64(&main, pool.base(), 1);
        pool.store_u64(&main, pool.base(), 2);
        pool.store_u64(&main, pool.base(), 3);
        assert_eq!(*seen.lock(), vec![0, 2]);
        assert!(inj.take_images().is_empty(), "sink consumed the images");
        assert_eq!(inj.images_captured(), 2);
    }
}
