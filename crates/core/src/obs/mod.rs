//! Pipeline observability: a zero-dependency, thread-safe metrics layer.
//!
//! HawkSet's headline claim is *efficiency*, so the pipeline must be able
//! to say where its time and its pruning go. This module provides the
//! three primitives that carry that accounting:
//!
//! * [`Counter`] — a relaxed atomic `u64`, safe to bump from any shard
//!   worker;
//! * [`Histogram`] — fixed-bucket atomic histogram (bucket bounds are part
//!   of the construction, so two runs always bin identically);
//! * [`MetricsRegistry`] — one registry per pipeline run, owning the
//!   counters for every stage plus monotonic stage timers, frozen into a
//!   serializable [`MetricsSnapshot`] at the end of the run.
//!
//! **Determinism contract.** Every field of the snapshot outside the
//! `timing` subobject is bit-identical for every worker-thread count: the
//! counters are only ever incremented by amounts the deterministic shard
//! plan dictates, and the merge order of relaxed atomic adds cannot change
//! a sum. Wall-clock data — stage durations, per-worker busy time — is
//! quarantined in [`TimingMetrics`] and zeroed by
//! [`MetricsSnapshot::masked`] before any determinism comparison.
//!
//! External consumers (the bench crate, future profilers) subscribe
//! through the [`ObsHook`] trait without recompiling the core: hooks see
//! stage starts, stage ends (with wall-clock durations) and the final
//! counter flush.

mod snapshot;

pub use snapshot::{
    HistogramSnapshot, IngestMetrics, IrhMetrics, MemsimMetrics, MetricsSnapshot, PairingMetrics,
    TimingMetrics, METRICS_VERSION,
};

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use crate::memsim::SimStats;

/// A thread-safe monotonically increasing counter.
///
/// All operations are `Relaxed`: counters carry no synchronization duties,
/// and addition is commutative, so the observed total is schedule-
/// independent as long as the *amounts* added are.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// A counter at zero.
    pub const fn new() -> Self {
        Self(AtomicU64::new(0))
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Overwrites the value (for counters computed once, not accumulated).
    pub fn set(&self, n: u64) {
        self.0.store(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A fixed-bucket histogram over `u64` observations.
///
/// Bucket `i` counts observations `v` with `bounds[i-1] < v <= bounds[i]`
/// (bucket 0 starts at zero); one extra overflow bucket catches everything
/// past the last bound. Bounds are fixed at construction, so the binning
/// of a deterministic observation stream is itself deterministic.
#[derive(Debug)]
pub struct Histogram {
    bounds: Vec<u64>,
    buckets: Vec<AtomicU64>,
}

impl Histogram {
    /// A histogram over explicit ascending inclusive upper bounds.
    pub fn with_bounds(bounds: Vec<u64>) -> Self {
        debug_assert!(bounds.windows(2).all(|w| w[0] < w[1]), "bounds must ascend");
        let buckets = (0..bounds.len() + 1).map(|_| AtomicU64::new(0)).collect();
        Self { bounds, buckets }
    }

    /// Bounds `0, 1, 2, 4, …, 2^max_exp` — the shape used for shard
    /// occupancy, where empty shards are common and counts are heavy-tailed.
    pub fn powers_of_two(max_exp: u32) -> Self {
        let mut bounds = vec![0];
        bounds.extend((0..=max_exp).map(|e| 1u64 << e));
        Self::with_bounds(bounds)
    }

    /// Records one observation.
    pub fn observe(&self, v: u64) {
        let i = match self.bounds.iter().position(|&b| v <= b) {
            Some(i) => i,
            None => self.bounds.len(),
        };
        self.buckets[i].fetch_add(1, Ordering::Relaxed);
    }

    /// Freezes the current counts.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            bounds: self.bounds.clone(),
            counts: self
                .buckets
                .iter()
                .map(|b| b.load(Ordering::Relaxed))
                .collect(),
        }
    }
}

/// The pipeline stages a [`MetricsRegistry`] can time and an [`ObsHook`]
/// can observe.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Stage {
    /// Trace decode (and salvage): a streamed run's reading thread, or the
    /// CLI's decode of a file before an in-memory run.
    Decode,
    /// Ingest: worst-case persistence simulation + IRH, and the reading
    /// and checking that overlap it.
    Simulate,
    /// Sharded pairing.
    Pairing,
    /// The whole pipeline.
    Total,
}

impl Stage {
    /// Stable lowercase name (`"decode"`, `"simulate"`, …).
    pub fn name(self) -> &'static str {
        match self {
            Stage::Decode => "decode",
            Stage::Simulate => "simulate",
            Stage::Pairing => "pairing",
            Stage::Total => "total",
        }
    }
}

/// Callback tracing hooks: subscribe to stage boundaries and the final
/// counter flush without recompiling the core.
///
/// All methods have empty defaults, so a hook implements only what it
/// needs. Hooks run inline on the pipeline thread — keep them cheap; a
/// slow hook slows the stage it observes (its cost lands in `timing`
/// only, never in the deterministic counters).
pub trait ObsHook: Send + Sync {
    /// A stage is about to run.
    fn on_stage_start(&self, _stage: Stage) {}
    /// A stage finished after `wall` of wall-clock time.
    fn on_stage_end(&self, _stage: Stage, _wall: Duration) {}
    /// The registry froze its counters into a snapshot (end of the run).
    fn on_counter_flush(&self, _snapshot: &MetricsSnapshot) {}
}

/// Live ingest counters (see [`IngestMetrics`] for field meanings).
#[derive(Debug, Default)]
pub struct IngestCounters {
    /// Events that reached the pipeline after decode.
    pub events_decoded: Counter,
    /// Events the simulation replayed.
    pub events_analyzed: Counter,
    /// Events dropped by the lenient-mode quarantine.
    pub events_quarantined: Counter,
    /// Events cut by the `max_events` budget prefix.
    pub events_truncated: Counter,
    /// Events lost to lossy salvage before decode completed.
    pub events_salvage_dropped: Counter,
    /// Bytes discarded by lossy salvage.
    pub bytes_salvage_dropped: Counter,
}

/// Live pairing counters (see [`PairingMetrics`] for field meanings).
#[derive(Debug)]
pub struct PairingCounters {
    /// Store windows considered.
    pub live_windows: Counter,
    /// Loads considered.
    pub live_loads: Counter,
    /// Candidate pairs, classified + budget-dropped.
    pub candidate_pairs: Counter,
    /// Pairs reported racy.
    pub pairs_reported: Counter,
    /// Pairs pruned by happens-before.
    pub pairs_pruned_hb: Counter,
    /// Pairs pruned by the lockset intersection.
    pub pairs_pruned_lockset: Counter,
    /// Pairs left unexamined by a tripped pair budget.
    pub pairs_budget_dropped: Counter,
    /// Distinct races reported.
    pub distinct_races: Counter,
    /// Memoized HB checks that hit.
    pub hb_memo_hits: Counter,
    /// Memoized lockset checks that hit.
    pub lockset_memo_hits: Counter,
    /// One slot per shard: that shard's candidate pairs. Written
    /// concurrently by whichever worker ran the shard — safe because each
    /// shard has exactly one owner per run.
    pub shard_candidate_pairs: Vec<Counter>,
    /// Window-group count per shard.
    pub shard_occupancy: Histogram,
}

impl PairingCounters {
    fn new(shards: usize) -> Self {
        Self {
            live_windows: Counter::new(),
            live_loads: Counter::new(),
            candidate_pairs: Counter::new(),
            pairs_reported: Counter::new(),
            pairs_pruned_hb: Counter::new(),
            pairs_pruned_lockset: Counter::new(),
            pairs_budget_dropped: Counter::new(),
            distinct_races: Counter::new(),
            hb_memo_hits: Counter::new(),
            lockset_memo_hits: Counter::new(),
            shard_candidate_pairs: (0..shards).map(|_| Counter::new()).collect(),
            // 0, 1, 2, 4, …, 2^20 window groups per shard.
            shard_occupancy: Histogram::powers_of_two(20),
        }
    }
}

/// Monotonic stage timers, nanoseconds, accumulated per stage.
#[derive(Debug, Default)]
struct TimingCells {
    decode_ns: AtomicU64,
    simulate_ns: AtomicU64,
    pairing_ns: AtomicU64,
    total_ns: AtomicU64,
    worker_busy_ns: Mutex<Vec<u64>>,
}

/// One registry per pipeline run: the live, writable side of the metrics
/// layer. Freeze it with [`MetricsRegistry::flush`] when the run ends.
pub struct MetricsRegistry {
    /// Decode / quarantine / truncation counters.
    pub ingest: IngestCounters,
    /// Pairing-stage counters.
    pub pairing: PairingCounters,
    sim: Mutex<Option<SimStats>>,
    timing: TimingCells,
    hooks: Vec<Arc<dyn ObsHook>>,
}

impl std::fmt::Debug for MetricsRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MetricsRegistry")
            .field("ingest", &self.ingest)
            .field("pairing", &self.pairing)
            .field("hooks", &self.hooks.len())
            .finish_non_exhaustive()
    }
}

impl Default for MetricsRegistry {
    fn default() -> Self {
        Self::new()
    }
}

impl MetricsRegistry {
    /// A registry with no hooks.
    pub fn new() -> Self {
        Self::with_hooks(Vec::new())
    }

    /// A registry whose stage and flush events are forwarded to `hooks`.
    pub fn with_hooks(hooks: Vec<Arc<dyn ObsHook>>) -> Self {
        Self {
            ingest: IngestCounters::default(),
            pairing: PairingCounters::new(crate::analysis::engine::PAIR_SHARDS),
            sim: Mutex::new(None),
            timing: TimingCells::default(),
            hooks,
        }
    }

    /// Starts timing `stage`; the returned guard records the duration (and
    /// fires [`ObsHook::on_stage_end`]) when dropped.
    pub fn stage(&self, stage: Stage) -> StageGuard<'_> {
        for h in &self.hooks {
            h.on_stage_start(stage);
        }
        StageGuard {
            reg: self,
            stage,
            started: Instant::now(),
        }
    }

    /// Adds `wall` to a stage's accumulated duration without a guard —
    /// for durations summed from pieces (a stream's decode time) or
    /// measured externally (the CLI's decode timer).
    pub fn record_stage_duration(&self, stage: Stage, wall: Duration) {
        let ns = u64::try_from(wall.as_nanos()).unwrap_or(u64::MAX);
        let cell = match stage {
            Stage::Decode => &self.timing.decode_ns,
            Stage::Simulate => &self.timing.simulate_ns,
            Stage::Pairing => &self.timing.pairing_ns,
            Stage::Total => &self.timing.total_ns,
        };
        cell.fetch_add(ns, Ordering::Relaxed);
    }

    /// Stores the simulation's counters (stage-1 + IRH sections of the
    /// snapshot).
    pub fn record_sim(&self, stats: &SimStats) {
        *self.sim.lock().unwrap() = Some(stats.clone());
    }

    /// Stores per-worker busy durations from the pairing fan-out.
    pub fn record_worker_busy(&self, busy: &[Duration]) {
        let mut guard = self.timing.worker_busy_ns.lock().unwrap();
        *guard = busy
            .iter()
            .map(|d| u64::try_from(d.as_nanos()).unwrap_or(u64::MAX))
            .collect();
    }

    /// Freezes the current counters without firing hooks.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let ms = |cell: &AtomicU64| cell.load(Ordering::Relaxed) as f64 / 1e6;
        let (memsim, irh) = match self.sim.lock().unwrap().as_ref() {
            Some(s) => (s.memsim_metrics(), s.irh_metrics()),
            None => (MemsimMetrics::default(), IrhMetrics::default()),
        };
        let p = &self.pairing;
        MetricsSnapshot {
            version: METRICS_VERSION,
            ingest: IngestMetrics {
                events_decoded: self.ingest.events_decoded.get(),
                events_analyzed: self.ingest.events_analyzed.get(),
                events_quarantined: self.ingest.events_quarantined.get(),
                events_truncated: self.ingest.events_truncated.get(),
                events_salvage_dropped: self.ingest.events_salvage_dropped.get(),
                bytes_salvage_dropped: self.ingest.bytes_salvage_dropped.get(),
            },
            memsim,
            irh,
            pairing: PairingMetrics {
                live_windows: p.live_windows.get(),
                live_loads: p.live_loads.get(),
                candidate_pairs: p.candidate_pairs.get(),
                pairs_reported: p.pairs_reported.get(),
                pairs_pruned_hb: p.pairs_pruned_hb.get(),
                pairs_pruned_lockset: p.pairs_pruned_lockset.get(),
                pairs_budget_dropped: p.pairs_budget_dropped.get(),
                distinct_races: p.distinct_races.get(),
                hb_memo_hits: p.hb_memo_hits.get(),
                lockset_memo_hits: p.lockset_memo_hits.get(),
                shard_candidate_pairs: p.shard_candidate_pairs.iter().map(Counter::get).collect(),
                shard_occupancy: p.shard_occupancy.snapshot(),
            },
            timing: TimingMetrics {
                decode_ms: ms(&self.timing.decode_ns),
                simulate_ms: ms(&self.timing.simulate_ns),
                pairing_ms: ms(&self.timing.pairing_ns),
                total_ms: ms(&self.timing.total_ns),
                worker_busy_ms: self
                    .timing
                    .worker_busy_ns
                    .lock()
                    .unwrap()
                    .iter()
                    .map(|&ns| ns as f64 / 1e6)
                    .collect(),
            },
        }
    }

    /// Freezes the counters and fires [`ObsHook::on_counter_flush`] on
    /// every hook.
    pub fn flush(&self) -> MetricsSnapshot {
        let snapshot = self.snapshot();
        for h in &self.hooks {
            h.on_counter_flush(&snapshot);
        }
        snapshot
    }
}

/// RAII stage timer — see [`MetricsRegistry::stage`].
pub struct StageGuard<'a> {
    reg: &'a MetricsRegistry,
    stage: Stage,
    started: Instant,
}

impl Drop for StageGuard<'_> {
    fn drop(&mut self) {
        let wall = self.started.elapsed();
        self.reg.record_stage_duration(self.stage, wall);
        for h in &self.reg.hooks {
            h.on_stage_end(self.stage, wall);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn counter_accumulates_across_threads() {
        let c = Counter::new();
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for _ in 0..1000 {
                        c.add(2);
                    }
                });
            }
        });
        assert_eq!(c.get(), 8000);
        c.set(5);
        assert_eq!(c.get(), 5);
    }

    #[test]
    fn histogram_bins_inclusively_with_overflow() {
        let h = Histogram::with_bounds(vec![0, 1, 4]);
        for v in [0, 1, 2, 4, 5, 1000] {
            h.observe(v);
        }
        let snap = h.snapshot();
        assert_eq!(snap.bounds, vec![0, 1, 4]);
        assert_eq!(snap.counts, vec![1, 1, 2, 2]); // {0}, {1}, {2,4}, {5,1000}
        assert_eq!(snap.total(), 6);
    }

    #[test]
    fn powers_of_two_histogram_covers_zero() {
        let h = Histogram::powers_of_two(3); // 0,1,2,4,8
        h.observe(0);
        h.observe(8);
        h.observe(9);
        let snap = h.snapshot();
        assert_eq!(snap.bounds, vec![0, 1, 2, 4, 8]);
        assert_eq!(snap.counts, vec![1, 0, 0, 0, 1, 1]);
    }

    /// A hook that counts callback invocations and checks ordering.
    #[derive(Default)]
    struct Probe {
        starts: AtomicUsize,
        ends: AtomicUsize,
        flushes: AtomicUsize,
    }

    impl ObsHook for Probe {
        fn on_stage_start(&self, stage: Stage) {
            assert_eq!(stage, Stage::Simulate);
            self.starts.fetch_add(1, Ordering::Relaxed);
        }
        fn on_stage_end(&self, stage: Stage, _wall: Duration) {
            assert_eq!(stage, Stage::Simulate);
            self.ends.fetch_add(1, Ordering::Relaxed);
        }
        fn on_counter_flush(&self, snapshot: &MetricsSnapshot) {
            assert_eq!(snapshot.version, METRICS_VERSION);
            self.flushes.fetch_add(1, Ordering::Relaxed);
        }
    }

    #[test]
    fn stage_guard_fires_hooks_and_accumulates_timing() {
        let probe = Arc::new(Probe::default());
        let reg = MetricsRegistry::with_hooks(vec![probe.clone()]);
        {
            let _g = reg.stage(Stage::Simulate);
            assert_eq!(probe.starts.load(Ordering::Relaxed), 1);
            assert_eq!(probe.ends.load(Ordering::Relaxed), 0);
        }
        assert_eq!(probe.ends.load(Ordering::Relaxed), 1);
        let snap = reg.flush();
        assert_eq!(probe.flushes.load(Ordering::Relaxed), 1);
        assert!(snap.timing.simulate_ms >= 0.0);
        assert_eq!(snap.timing.pairing_ms, 0.0);
    }

    #[test]
    fn external_durations_accumulate_per_stage() {
        let reg = MetricsRegistry::new();
        reg.record_stage_duration(Stage::Decode, Duration::from_millis(2));
        reg.record_stage_duration(Stage::Decode, Duration::from_millis(3));
        let snap = reg.snapshot();
        assert!((snap.timing.decode_ms - 5.0).abs() < 1e-9);
    }

    #[test]
    fn snapshot_reflects_counters_and_masks_deterministically() {
        let reg = MetricsRegistry::new();
        reg.ingest.events_decoded.set(10);
        reg.ingest.events_analyzed.set(10);
        reg.pairing.candidate_pairs.add(4);
        reg.pairing.pairs_reported.add(4);
        reg.pairing.shard_candidate_pairs[0].add(3);
        reg.pairing.shard_candidate_pairs[63].add(1);
        reg.record_stage_duration(Stage::Total, Duration::from_millis(1));
        let snap = reg.flush();
        assert!(snap.conservation_violations().is_empty());
        assert_eq!(snap.pairing.shard_candidate_pairs.len(), 64);
        assert_eq!(snap.pairing.shard_candidate_pairs[0], 3);
        assert!(snap.timing.total_ms > 0.0);
        assert_eq!(snap.masked().timing.total_ms, 0.0);
    }
}
