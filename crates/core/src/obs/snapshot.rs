//! Serializable metrics snapshots.
//!
//! A [`MetricsSnapshot`] is the frozen, JSON-facing view of a
//! [`MetricsRegistry`](super::MetricsRegistry): plain integers and floats,
//! no atomics. Everything outside the [`TimingMetrics`] subobject is
//! **deterministic for every worker-thread count** — the same trace and
//! configuration produce bit-identical values at 1, 2 or 64 threads. The
//! `timing` subobject is the single designated home for wall-clock data
//! and is excluded from every determinism comparison via
//! [`MetricsSnapshot::masked`].

use serde::{Deserialize, Serialize};

/// Version of the metrics object's own shape. Independent of the report
/// schema version: the `metrics` key is an optional, versioned addition to
/// schema v1, so v1 consumers that ignore unknown keys are unbroken.
pub const METRICS_VERSION: u64 = 1;

/// Frozen counts of one histogram: `counts[i]` observations fell in
/// `(bounds[i-1], bounds[i]]` (first bucket starts at zero), with one
/// overflow bucket past the last bound.
#[derive(Clone, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct HistogramSnapshot {
    /// Inclusive upper bounds, ascending.
    pub bounds: Vec<u64>,
    /// `bounds.len() + 1` buckets; the last is the overflow bucket.
    pub counts: Vec<u64>,
}

impl HistogramSnapshot {
    /// Total observations across all buckets.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }
}

/// Decode / salvage / quarantine accounting. Governed by the first
/// conservation law:
///
/// ```text
/// events_decoded = events_analyzed + events_quarantined + events_truncated
/// ```
#[derive(Clone, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct IngestMetrics {
    /// Events that reached the pipeline after decode (and salvage, when
    /// lossy decode ran).
    pub events_decoded: u64,
    /// Events the simulation actually replayed.
    pub events_analyzed: u64,
    /// Events dropped by the lenient-mode quarantine.
    pub events_quarantined: u64,
    /// Events cut by the `max_events` budget prefix.
    pub events_truncated: u64,
    /// Events lost before decode completed (lossy salvage); **not** part
    /// of the conservation law — they never counted as decoded.
    pub events_salvage_dropped: u64,
    /// Bytes discarded by lossy salvage.
    pub bytes_salvage_dropped: u64,
}

/// Worst-case persistence simulation counters (stage 1).
#[derive(Clone, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct MemsimMetrics {
    /// Events replayed.
    pub events: u64,
    /// PM stores seen.
    pub stores: u64,
    /// PM loads seen.
    pub loads: u64,
    /// Flush instructions seen.
    pub flushes: u64,
    /// Fence instructions seen.
    pub fences: u64,
    /// Store windows created.
    pub windows_created: u64,
    /// Windows closed by explicit persistence.
    pub windows_persisted: u64,
    /// Windows closed by overwrite.
    pub windows_overwritten: u64,
    /// Windows still open at the end of the execution.
    pub windows_unpersisted: u64,
    /// Accesses outside every registered PM region.
    pub non_pm_accesses: u64,
    /// Distinct locksets interned.
    pub distinct_locksets: u64,
    /// Distinct vector clocks interned.
    pub distinct_vclocks: u64,
    /// Lockset/vector-clock intern requests.
    pub intern_requests: u64,
    /// Store windows evicted under memory-budget pressure. Extends the
    /// window partition law: `windows_persisted + windows_overwritten +
    /// windows_unpersisted == windows_kept + windows_evicted`.
    #[serde(default)]
    pub windows_evicted: u64,
    /// Loads evicted under memory-budget pressure.
    #[serde(default)]
    pub loads_evicted: u64,
}

/// Initialization Removal Heuristic counters (§3.1.3).
#[derive(Clone, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct IrhMetrics {
    /// Store windows discarded as initialization.
    pub windows_discarded: u64,
    /// Loads dropped as initialization reads.
    pub loads_dropped: u64,
    /// Words tracked by the publication tracker.
    pub tracked_words: u64,
}

/// Sharded pairing counters (stage 3). Governed by the second conservation
/// law:
///
/// ```text
/// candidate_pairs = pairs_reported + pairs_pruned_lockset
///                 + pairs_pruned_hb + pairs_budget_dropped
/// ```
///
/// `candidate_pairs` here counts every address-overlapping cross-thread
/// pair the run accounted for — the classified pairs plus the
/// `pairs_budget_dropped` tail a tripped `max_candidate_pairs` budget left
/// unclassified. (The schema-v1 `stats.pairing.candidate_pairs` field
/// keeps its narrower meaning of *examined* pairs.) The law is exact in
/// every stop mode: budget checks sit at window-group boundaries, so each
/// examined pair is fully classified. A wall-clock `deadline` stop — the
/// engine's one non-deterministic stop — skips the tail enumeration
/// (`pairs_budget_dropped` stays 0 and the abandoned tail is not counted
/// in `candidate_pairs` either), so the equation still balances.
#[derive(Clone, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct PairingMetrics {
    /// Store-window groups' member windows considered (IRH survivors).
    pub live_windows: u64,
    /// Loads considered (IRH survivors).
    pub live_loads: u64,
    /// Address-overlapping cross-thread pairs, classified or budget-dropped.
    pub candidate_pairs: u64,
    /// Pairs that survived both filters and were reported racy.
    pub pairs_reported: u64,
    /// Pairs pruned by the inter-thread happens-before filter.
    pub pairs_pruned_hb: u64,
    /// Pairs pruned by the effective-lockset intersection.
    pub pairs_pruned_lockset: u64,
    /// Pairs a tripped candidate-pair budget left unexamined.
    pub pairs_budget_dropped: u64,
    /// Distinct races after site deduplication.
    pub distinct_races: u64,
    /// Memoized happens-before checks that hit the cache.
    pub hb_memo_hits: u64,
    /// Memoized lockset checks that hit the cache.
    pub lockset_memo_hits: u64,
    /// Per-shard classified + budget-dropped candidate pairs
    /// (`PAIR_SHARDS` entries); sums to `candidate_pairs`.
    pub shard_candidate_pairs: Vec<u64>,
    /// Histogram of window-group counts per shard (shard occupancy — the
    /// load-imbalance picture).
    pub shard_occupancy: HistogramSnapshot,
}

/// Wall-clock data. **Everything here is non-deterministic** — machine-,
/// load- and thread-count-dependent — which is why it lives in one clearly
/// named subobject that [`MetricsSnapshot::masked`] zeroes out wholesale.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct TimingMetrics {
    /// Trace decode (and salvage) time. A streamed run
    /// ([`Analyzer::try_run_stream`](crate::analysis::Analyzer::try_run_stream))
    /// records the busy time of the thread that reads the stream: decoding
    /// and checking the events, summed per batch, without its waits for a
    /// free batch. That work overlaps the simulation, so it is also part of
    /// `simulate_ms`. The CLI sets this field to its decode of a file
    /// before an in-memory run; it stays `0.0` for in-process runs handed
    /// an already-decoded trace.
    pub decode_ms: f64,
    /// Wall-clock time of ingest: reading, checking and simulating the
    /// events (worst-case persistence simulation + IRH).
    pub simulate_ms: f64,
    /// Sharded pairing time.
    pub pairing_ms: f64,
    /// Whole-pipeline time.
    pub total_ms: f64,
    /// Per-worker busy time inside the pairing fan-out; length equals the
    /// worker count actually used.
    pub worker_busy_ms: Vec<f64>,
}

/// The full frozen metrics object, as embedded under the report's
/// `metrics` key and written by `--metrics`.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct MetricsSnapshot {
    /// [`METRICS_VERSION`].
    pub version: u64,
    /// Decode / quarantine / truncation accounting.
    pub ingest: IngestMetrics,
    /// Stage-1 simulation counters.
    pub memsim: MemsimMetrics,
    /// IRH counters.
    pub irh: IrhMetrics,
    /// Stage-3 pairing counters.
    pub pairing: PairingMetrics,
    /// Wall-clock fields — the only non-deterministic section.
    pub timing: TimingMetrics,
}

impl Default for MetricsSnapshot {
    fn default() -> Self {
        Self {
            version: METRICS_VERSION,
            ingest: IngestMetrics::default(),
            memsim: MemsimMetrics::default(),
            irh: IrhMetrics::default(),
            pairing: PairingMetrics::default(),
            timing: TimingMetrics::default(),
        }
    }
}

impl MetricsSnapshot {
    /// Pretty-printed standalone JSON (the `--metrics` file format).
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("metrics serialization cannot fail")
    }

    /// A copy with every wall-clock field zeroed. Two masked snapshots of
    /// the same input must compare equal at any thread count — this is the
    /// form the golden corpus and the determinism property tests pin.
    pub fn masked(&self) -> Self {
        Self {
            timing: TimingMetrics::default(),
            ..self.clone()
        }
    }

    /// Checks every conservation law; returns one human-readable line per
    /// violation (empty = all laws hold).
    ///
    /// All three laws hold in every stop mode, deadline included (see
    /// [`PairingMetrics`]), so every law is always asserted.
    pub fn conservation_violations(&self) -> Vec<String> {
        let mut v = Vec::new();
        let i = &self.ingest;
        let rhs = i.events_analyzed + i.events_quarantined + i.events_truncated;
        if i.events_decoded != rhs {
            v.push(format!(
                "ingest law violated: events_decoded ({}) != events_analyzed ({}) \
                 + events_quarantined ({}) + events_truncated ({})",
                i.events_decoded, i.events_analyzed, i.events_quarantined, i.events_truncated,
            ));
        }
        let p = &self.pairing;
        let rhs =
            p.pairs_reported + p.pairs_pruned_lockset + p.pairs_pruned_hb + p.pairs_budget_dropped;
        if p.candidate_pairs != rhs {
            v.push(format!(
                "pairing law violated: candidate_pairs ({}) != pairs_reported ({}) \
                 + pairs_pruned_lockset ({}) + pairs_pruned_hb ({}) \
                 + pairs_budget_dropped ({})",
                p.candidate_pairs,
                p.pairs_reported,
                p.pairs_pruned_lockset,
                p.pairs_pruned_hb,
                p.pairs_budget_dropped,
            ));
        }
        let shard_sum: u64 = p.shard_candidate_pairs.iter().sum();
        if !p.shard_candidate_pairs.is_empty() && shard_sum != p.candidate_pairs {
            v.push(format!(
                "shard law violated: sum(shard_candidate_pairs) ({}) != candidate_pairs ({})",
                shard_sum, p.candidate_pairs,
            ));
        }
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_snapshot_satisfies_all_laws() {
        assert!(MetricsSnapshot::default()
            .conservation_violations()
            .is_empty());
    }

    #[test]
    fn ingest_law_violation_is_reported() {
        let mut m = MetricsSnapshot::default();
        m.ingest.events_decoded = 10;
        m.ingest.events_analyzed = 4;
        let v = m.conservation_violations();
        assert_eq!(v.len(), 1);
        assert!(v[0].contains("ingest law"));
    }

    #[test]
    fn pairing_law_counts_budget_dropped_tail() {
        let mut m = MetricsSnapshot::default();
        m.pairing.candidate_pairs = 10;
        m.pairing.pairs_reported = 2;
        m.pairing.pairs_pruned_hb = 3;
        m.pairing.pairs_pruned_lockset = 1;
        m.pairing.pairs_budget_dropped = 4;
        assert!(m.conservation_violations().is_empty());
        m.pairing.pairs_budget_dropped = 3;
        assert_eq!(m.conservation_violations().len(), 1);
    }

    #[test]
    fn shard_sum_must_match_candidate_pairs() {
        let mut m = MetricsSnapshot::default();
        m.pairing.candidate_pairs = 5;
        m.pairing.pairs_reported = 5;
        m.pairing.shard_candidate_pairs = vec![2, 2];
        let v = m.conservation_violations();
        assert_eq!(v.len(), 1);
        assert!(v[0].contains("shard law"));
    }

    #[test]
    fn masked_zeroes_only_timing() {
        let mut m = MetricsSnapshot::default();
        m.timing.total_ms = 12.5;
        m.timing.worker_busy_ms = vec![1.0, 2.0];
        m.memsim.stores = 7;
        let masked = m.masked();
        assert_eq!(masked.timing, TimingMetrics::default());
        assert_eq!(masked.memsim.stores, 7);
    }

    #[test]
    fn json_roundtrip_preserves_snapshot() {
        let mut m = MetricsSnapshot::default();
        m.pairing.shard_candidate_pairs = vec![1, 0, 3];
        m.pairing.shard_occupancy = HistogramSnapshot {
            bounds: vec![1, 2, 4],
            counts: vec![0, 1, 2, 0],
        };
        m.timing.simulate_ms = 0.25;
        let back: MetricsSnapshot = serde_json::from_str(&m.to_json()).unwrap();
        assert_eq!(back, m);
        assert_eq!(back.version, METRICS_VERSION);
    }
}
