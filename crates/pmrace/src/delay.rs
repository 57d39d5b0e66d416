//! Delay injection.
//!
//! PMRace combines fuzzing with "specialized delay injection techniques to
//! improve the chance of observing interleavings that constitute a
//! persistency-induced race" (§6.3). The injector hooks every PM operation
//! of the instrumented runtime and sleeps with a configurable probability,
//! stretching the visible-but-not-durable windows so that another thread's
//! load can land inside them.
//!
//! Two layers of targeting exist:
//!
//! * the **uniform** layer ([`DelayInjector::new`]) fires on every point
//!   with one probability — the PMRace baseline;
//! * the **scheduled** layer ([`DelayInjector::with_spec`]) adds targeted
//!   [`DelayRule`]s that override the uniform layer for a specific thread
//!   and/or point class (store, load, flush, fence, lock acquire/release)
//!   — the delay axis of steered campaigns, which concentrates delays
//!   where the corpus says unexplored windows live.
//!
//! Decisions are deterministic in `(seed, thread, op-index, address)` so a
//! campaign round is reproducible.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use hawkset_core::hash::fnv1a_u64;
use hawkset_core::trace::ThreadId;
use pm_runtime::{Hook, HookPoint};
use serde::{Deserialize, Serialize};

/// The class of a [`HookPoint`], used by [`DelayRule`] targeting.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
#[serde(rename_all = "snake_case")]
pub enum PointClass {
    /// Any point.
    Any,
    /// PM stores.
    Store,
    /// PM loads.
    Load,
    /// Cache-line flushes.
    Flush,
    /// Persistency fences.
    Fence,
    /// Lock acquisitions.
    Acquire,
    /// Lock releases.
    Release,
}

impl PointClass {
    fn matches(self, point: HookPoint) -> bool {
        match self {
            PointClass::Any => true,
            PointClass::Store => matches!(point, HookPoint::BeforeStore(_)),
            PointClass::Load => matches!(point, HookPoint::BeforeLoad(_)),
            PointClass::Flush => matches!(point, HookPoint::BeforeFlush(_)),
            PointClass::Fence => matches!(point, HookPoint::BeforeFence),
            PointClass::Acquire => matches!(point, HookPoint::BeforeAcquire(_)),
            PointClass::Release => matches!(point, HookPoint::BeforeRelease(_)),
        }
    }
}

/// One targeted delay rule: for points matching `(thread, point)`, fire
/// with `prob_1024`/1024 probability and delays up to `max_delay_us`.
/// Rules take precedence over the uniform layer; the first matching rule
/// wins, so order is part of the schedule.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct DelayRule {
    /// Restrict to one thread id (`None` = every thread).
    pub thread: Option<u32>,
    /// Restrict to one point class.
    pub point: PointClass,
    /// Firing probability in 1/1024 units (0..=1024).
    pub prob_1024: u16,
    /// Maximum injected delay, µs (`0` = this rule suppresses delays).
    pub max_delay_us: u64,
}

/// A whole delay schedule: a uniform base layer plus targeted rules.
/// Probabilities live in 1/1024 units so schedules serialize exactly
/// (no float round-trips) into campaign checkpoints.
#[derive(Clone, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct DelaySpec {
    /// Base firing probability in 1/1024 units for points no rule matches.
    pub prob_1024: u16,
    /// Base maximum delay, µs (`0` disables the base layer).
    pub max_delay_us: u64,
    /// Targeted overrides, first match wins.
    #[serde(default, skip_serializing_if = "Vec::is_empty")]
    pub rules: Vec<DelayRule>,
}

impl DelaySpec {
    /// A schedule that never delays — the hook becomes a no-op.
    pub fn none() -> Self {
        Self::default()
    }

    /// The uniform PMRace baseline: probability `prob` (clamped to
    /// [0, 1]), delays up to `max_delay_us`.
    pub fn uniform(prob: f64, max_delay_us: u64) -> Self {
        Self {
            prob_1024: (prob.clamp(0.0, 1.0) * 1024.0) as u16,
            max_delay_us,
            rules: Vec::new(),
        }
    }

    /// `true` when no point can ever be delayed; callers skip installing
    /// the hook entirely so undelayed rounds stay byte-identical to runs
    /// that never had an injector.
    pub fn is_noop(&self) -> bool {
        let base_off = self.prob_1024 == 0 || self.max_delay_us == 0;
        base_off
            && self
                .rules
                .iter()
                .all(|r| r.prob_1024 == 0 || r.max_delay_us == 0)
    }
}

/// Deterministic, probability-driven PM-operation delayer.
pub struct DelayInjector {
    seed: u64,
    spec: DelaySpec,
    counter: AtomicU64,
    injected: AtomicU64,
}

impl DelayInjector {
    /// Creates an injector firing with probability `prob` (clamped to
    /// [0, 1]) and uniform delays up to `max_delay_us` microseconds.
    /// `max_delay_us == 0` disables injection entirely: the hook becomes a
    /// no-op and [`injected`](Self::injected) stays 0.
    pub fn new(seed: u64, prob: f64, max_delay_us: u64) -> Arc<Self> {
        Self::with_spec(seed, DelaySpec::uniform(prob, max_delay_us))
    }

    /// Creates an injector driven by a full [`DelaySpec`] schedule.
    pub fn with_spec(seed: u64, spec: DelaySpec) -> Arc<Self> {
        Arc::new(Self {
            seed,
            spec,
            counter: AtomicU64::new(0),
            injected: AtomicU64::new(0),
        })
    }

    /// Number of delays injected so far.
    pub fn injected(&self) -> u64 {
        self.injected.load(Ordering::Relaxed)
    }

    /// Wraps the injector as a runtime hook.
    pub fn hook(self: &Arc<Self>) -> Hook {
        let me = Arc::clone(self);
        Arc::new(move |tid: ThreadId, point: HookPoint| {
            if me.spec.is_noop() {
                return; // injection disabled
            }
            let n = me.counter.fetch_add(1, Ordering::Relaxed);
            // First matching rule overrides the uniform base layer.
            let (prob_1024, max_delay_us) = me
                .spec
                .rules
                .iter()
                .find(|r| r.thread.is_none_or(|t| t == tid.0) && r.point.matches(point))
                .map(|r| (u64::from(r.prob_1024), r.max_delay_us))
                .unwrap_or((u64::from(me.spec.prob_1024), me.spec.max_delay_us));
            if max_delay_us == 0 {
                return;
            }
            let addr = match point {
                HookPoint::BeforeStore(a)
                | HookPoint::BeforeLoad(a)
                | HookPoint::BeforeFlush(a) => a,
                HookPoint::BeforeFence => 0,
                HookPoint::BeforeAcquire(l) | HookPoint::BeforeRelease(l) => l.0,
            };
            let h =
                fnv1a_u64(me.seed ^ n.rotate_left(17) ^ u64::from(tid.0).rotate_left(33) ^ addr);
            if h % 1024 < prob_1024 {
                // Bias delays toward the persistency path: stretching the
                // store→fence window is what exposes the races. Release
                // delays get the same weight — they hold a critical
                // section open past its last PM write.
                let bias = match point {
                    HookPoint::BeforeFence
                    | HookPoint::BeforeFlush(_)
                    | HookPoint::BeforeRelease(_) => 4,
                    HookPoint::BeforeStore(_) => 2,
                    HookPoint::BeforeLoad(_) | HookPoint::BeforeAcquire(_) => 1,
                };
                let us = (h >> 10) % (max_delay_us * bias) + 1;
                me.injected.fetch_add(1, Ordering::Relaxed);
                std::thread::sleep(Duration::from_micros(us));
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_probability_never_fires() {
        let inj = DelayInjector::new(1, 0.0, 100);
        let hook = inj.hook();
        for i in 0..1000 {
            hook(ThreadId(0), HookPoint::BeforeStore(i));
        }
        assert_eq!(inj.injected(), 0);
    }

    #[test]
    fn full_probability_always_fires() {
        let inj = DelayInjector::new(1, 1.0, 1);
        let hook = inj.hook();
        for i in 0..50 {
            hook(ThreadId(0), HookPoint::BeforeLoad(i));
        }
        assert_eq!(inj.injected(), 50);
    }

    #[test]
    fn moderate_probability_fires_sometimes() {
        let inj = DelayInjector::new(7, 0.25, 1);
        let hook = inj.hook();
        for i in 0..400 {
            hook(ThreadId(1), HookPoint::BeforeFence);
            let _ = i;
        }
        let n = inj.injected();
        assert!(n > 40 && n < 180, "expected ≈100 of 400, got {n}");
    }

    /// `max_delay_us: 0` must mean "disabled", not a silent 1 µs floor.
    #[test]
    fn zero_max_delay_disables_injection() {
        let inj = DelayInjector::new(1, 1.0, 0);
        let hook = inj.hook();
        for i in 0..200 {
            hook(ThreadId(0), HookPoint::BeforeStore(i));
        }
        assert_eq!(inj.injected(), 0, "max_delay_us = 0 must never inject");
    }

    /// Same (seed, prob, max_delay_us) ⇒ identical injection decisions on
    /// identical op streams; a different seed places delays differently.
    #[test]
    fn injection_is_deterministic_in_seed() {
        let run = |seed: u64| {
            let inj = DelayInjector::new(seed, 0.25, 1);
            let hook = inj.hook();
            for i in 0..300 {
                hook(ThreadId(0), HookPoint::BeforeStore(i));
                hook(ThreadId(1), HookPoint::BeforeFlush(i));
                hook(ThreadId(1), HookPoint::BeforeFence);
            }
            inj.injected()
        };
        assert_eq!(run(42), run(42), "same seed must inject identically");
        assert_ne!(
            run(42),
            run(1042),
            "different seeds should diverge on 900 ops"
        );
    }

    /// A rule targeting one thread + point class fires only there, and
    /// overrides the (zero) base layer.
    #[test]
    fn targeted_rule_fires_only_on_its_thread_and_class() {
        let spec = DelaySpec {
            prob_1024: 0,
            max_delay_us: 0,
            rules: vec![DelayRule {
                thread: Some(1),
                point: PointClass::Store,
                prob_1024: 1024,
                max_delay_us: 1,
            }],
        };
        let inj = DelayInjector::with_spec(3, spec);
        let hook = inj.hook();
        for i in 0..20 {
            hook(ThreadId(0), HookPoint::BeforeStore(i)); // wrong thread
            hook(ThreadId(1), HookPoint::BeforeLoad(i)); // wrong class
            hook(ThreadId(1), HookPoint::BeforeStore(i)); // match
        }
        assert_eq!(inj.injected(), 20);
    }

    /// A zero-delay rule suppresses the base layer for its match set —
    /// rules are overrides, not additions.
    #[test]
    fn suppressing_rule_masks_the_base_layer() {
        let spec = DelaySpec {
            prob_1024: 1024,
            max_delay_us: 1,
            rules: vec![DelayRule {
                thread: None,
                point: PointClass::Load,
                prob_1024: 0,
                max_delay_us: 0,
            }],
        };
        let inj = DelayInjector::with_spec(3, spec);
        let hook = inj.hook();
        for i in 0..10 {
            hook(ThreadId(0), HookPoint::BeforeLoad(i)); // suppressed
            hook(ThreadId(0), HookPoint::BeforeStore(i)); // base fires
        }
        assert_eq!(inj.injected(), 10);
    }

    /// Lock points participate: an acquire/release-only schedule delays.
    #[test]
    fn lock_points_are_delayable() {
        use hawkset_core::trace::LockId;
        let spec = DelaySpec {
            prob_1024: 0,
            max_delay_us: 0,
            rules: vec![DelayRule {
                thread: None,
                point: PointClass::Release,
                prob_1024: 1024,
                max_delay_us: 1,
            }],
        };
        let inj = DelayInjector::with_spec(5, spec);
        let hook = inj.hook();
        for i in 0..8 {
            hook(ThreadId(0), HookPoint::BeforeAcquire(LockId(i)));
            hook(ThreadId(0), HookPoint::BeforeRelease(LockId(i)));
        }
        assert_eq!(inj.injected(), 8, "only the releases delay");
    }

    #[test]
    fn spec_noop_detection_and_serde_roundtrip() {
        assert!(DelaySpec::none().is_noop());
        assert!(DelaySpec::uniform(0.5, 0).is_noop());
        let spec = DelaySpec {
            prob_1024: 0,
            max_delay_us: 0,
            rules: vec![DelayRule {
                thread: Some(2),
                point: PointClass::Fence,
                prob_1024: 512,
                max_delay_us: 9,
            }],
        };
        assert!(!spec.is_noop());
        let back: DelaySpec = serde_json::from_str(&serde_json::to_string(&spec).unwrap()).unwrap();
        assert_eq!(back, spec);
    }
}
